package perfbench

import java.io.{File, PrintWriter}

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.SparkSession

/** Entry point of one benchmark run; see perfbench/README.md.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  * The last line of standard output is the JSON result.
  */
object Main {

  /** A generator seed for one input, derived from the workload seed. */
  def derive(seed: Long, input: String): Long =
    MurmurHash3.stringHash(s"$seed/$input").toLong & 0x7fffffffL

  /** The session settings of the repository's test suites and benches
    * (`repro.SparkSpec`), pinned rather than read from the environment.
    */
  val Settings: Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions"         -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled"                     -> "false",
    "spark.driver.host"                    -> "127.0.0.1",
  )

  val Workloads: Seq[String] = Seq("kg_build", "kg_serve")

  /** Spark-backed spans whose task counters are reported per layer. */
  val SparkSpans: Seq[String] = Seq(
    "profile", "graph.metadata", "graph.pairs", "rdf.store_build", "pipeline.corpus",
    "graph.link", "automl.extract", "discovery.ops", "automl.hyperparams",
    "automl.profile", "automl.apply")

  /** Spans whose self time is reported per layer, as `<span>_ms`. */
  val TimedSpans: Seq[String] = Seq(
    "profile", "graph.metadata", "graph.pairs", "graph.link",
    "rdf.store_build", "rdf.index_load", "discovery.union",
    "discovery.search_tables", "discovery.find_unionable", "discovery.top_k_joinable",
    "discovery.top_k_library", "discovery.pipelines_calling", "discovery.recommend_models",
    "python.parse", "pipeline.corpus", "pipeline.abstract",
    "automl.extract", "automl.train", "automl.hyperparams",
    "automl.profile", "automl.predict", "automl.apply")

  /** Counts recorded by the workloads, per request. */
  val Counts: Seq[String] = Seq(
    "profile.columns", "graph.pairs_compared", "graph.similarity_edges", "rdf.triples",
    "python.statements", "python.opaque_statements", "pipeline.triples", "automl.examples")

  /** Metrics a workload derives from its counts. */
  val Derived: Seq[String] = Seq("graph.edge_yield", "python.coverage")

  /** Latency percentiles of the union query (p95: 0 below 200 samples). */
  val UnionPercentiles: Seq[String] = Seq("discovery.union_p50_ms", "discovery.union_p95_ms")

  def timeMetric(span: String): String = if (span.contains('.')) s"${span}_ms" else s"$span.ms"

  def unitOf(metric: String): String =
    if (metric.endsWith("ms")) "ms"
    else if (metric.endsWith("_s")) "s"
    else if (metric.endsWith("_mb")) "MB"
    else if (Derived.contains(metric)) "ratio"
    else "count"

  /** Every per-layer metric; a workload reports 0 for a layer it does not run. */
  val LayerMetrics: Seq[String] =
    TimedSpans.map(timeMetric) ++ UnionPercentiles ++ Counts ++ Derived ++
      SparkSpans.flatMap(s => Seq("jobs", "tasks", "task_ms", "shuffle_mb", "spill_mb",
                                  "peak_exec_mb").map(m => s"$s.spark.$m")) ++
      Seq("jvm.gc_ms", "trace.batch_s")

  private def arg(args: Array[String], name: String): String = {
    val i = args.indexOf(s"--$name")
    require(i >= 0 && i + 1 < args.length, s"missing --$name")
    args(i + 1)
  }

  def session(): SparkSession = {
    val work = new File(".bench_build/perfbench/work").getAbsoluteFile
    val b = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
    Settings.foldLeft(b) { case (b, (k, v)) => b.config(k, v) }.getOrCreate()
  }

  private def json(correct: Boolean, ops: Ops, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": ${ops.attempted}, "failed": ${ops.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  def main(args: Array[String]): Unit = {
    val workload = arg(args, "workload")
    val seed     = arg(args, "seed").toLong
    val seconds  = arg(args, "seconds").toDouble
    val trace    = arg(args, "trace") == "1"
    require(Workloads.contains(workload), s"unknown workload $workload; one of $Workloads")

    Runner.log("start Spark")
    val spark = session()
    try {
      val sc       = spark.sparkContext
      val counters = new SparkCounters
      sc.addSparkListener(counters)
      val traced = if (!trace) None else Some(new Tracer(true,
        onEnter = id => sc.setJobGroup(id.toString, "perfbench span"),
        onExit = {
          case Some(parent) => sc.setJobGroup(parent.toString, "perfbench span")
          case None         => sc.clearJobGroup()
        }))
      val ops = new Ops
      val w: Workload = workload match {
        case "kg_build" => new Combined("kg_build", "build_s",
          Seq(new LakeDiscovery(spark, seed, ops), new PipelineCorpusRun(spark, seed, ops)))
        case "kg_serve" => new KgServe(spark, seed, ops)
      }
      println(s"perfbench $workload seed=$seed seconds=$seconds trace=$trace")
      println(s"env: nproc=${Runtime.getRuntime.availableProcessors} " +
        s"heap=${Runtime.getRuntime.maxMemory / 1024 / 1024}MB " +
        s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
        s"spark=${spark.version} master=${sc.master} " +
        Settings.map { case (k, v) => s"$k=$v" }.mkString(" "))

      val r = Runner.run(w, seconds, traced)
      counters.awaitQuiet(sc) // Spark's own listeners have caught up too
      val heapMb = Runner.liveHeapMb()
      java.lang.ref.Reference.reachabilityFence(w) // its prepared state counts
      val batch = r.samples.map(_.batchS)
      val calls = r.samples.flatMap(_.callsMs)
      println(f"${"setup_s"}%-20s ${Stats.describe(r.setupS, "s")}")
      println(f"${w.batchName + " (batch_s)"}%-20s ${Stats.describe(batch, "s")}: " +
        batch.map(b => f"$b%.3f").mkString(", "))
      if (w.callName.nonEmpty) println(f"${w.callName}%-20s ${Stats.describe(calls, "ms")}")
      println(f"${"live_heap_mb"}%-20s $heapMb%.1f MB")
      w.report().foreach(println)
      ops.errors.foreach(e => println(s"FAILED $e"))

      val metrics: Seq[(String, Double, String)] = traced match {
        case None =>
          Seq(("setup_s", Stats.median(r.setupS), "s"),
              ("batch_s", if (batch.isEmpty) 0.0 else Stats.median(batch), "s"),
              ("live_heap_mb", heapMb, "MB"))
        case Some(tr) =>
          val layer = layerMetrics(tr, counters, w, r)
          writeSpans(tr, counters, new File(s".bench_build/perfbench/trace-$workload-$seed.json"))
          LayerMetrics.map(m => (m, layer.getOrElse(m, 0.0), unitOf(m)))
      }
      println(json(ops.failed == 0 && ops.attempted > 0, ops, metrics))
    } finally spark.stop()
  }

  /** Per-layer metrics: per request (iteration, session or set-up), the
    * sum over a span name's spans, then the median over requests.
    */
  def layerMetrics(tr: Tracer, counters: SparkCounters, w: Workload,
                   r: Runner.Result): Map[String, Double] = {
    def med(xs: Iterable[Double]) = if (xs.isEmpty) 0.0 else Stats.median(xs.toSeq)
    val times = TimedSpans.map(s => timeMetric(s) -> med(tr.selfMsPerRequest(s)))
    val counts = Counts.map(c => c -> med(tr.countsOf(c)))
    val union = tr.spans.filter(_.name == "discovery.union").map(_.durationNs / 1e6)
    val unionPct = Seq(
      "discovery.union_p50_ms" -> med(union),
      "discovery.union_p95_ms" ->
        (if (Stats.reportable(union.size, 0.95)) Stats.quantile(union, 0.95) else 0.0))
    val spark = SparkSpans.flatMap { name =>
      val perRequest = tr.spans.filter(_.name == name).groupBy(_.request).values.map { ss =>
        ss.flatMap(tr.subtree).map(id => counters.of(id.toString)).foldLeft(counters.Zero)(_ + _)
      }
      val mb = 1024.0 * 1024.0
      Seq("jobs" -> perRequest.map(_.jobs.toDouble), "tasks" -> perRequest.map(_.tasks.toDouble),
          "task_ms" -> perRequest.map(_.taskMs.toDouble),
          "shuffle_mb" -> perRequest.map(_.shuffleBytes / mb),
          "spill_mb" -> perRequest.map(_.spillBytes / mb),
          "peak_exec_mb" -> perRequest.map(_.peakExecBytes / mb))
        .map { case (m, xs) => s"$name.spark.$m" -> med(xs) }
    }
    // batch_s with tracing on; minus an untraced run's, it is the overhead
    val overhead = Seq("jvm.gc_ms" -> med(r.gcMs),
                       "trace.batch_s" -> med(r.samples.map(_.batchS)))
    (times ++ counts ++ unionPct ++ spark ++ overhead).toMap ++
      w.layerMetrics(tr).filter { case (_, v) => !v.isNaN && !v.isInfinite }
  }

  /** Writes every span, with its self time and Spark counters, as JSON. */
  def writeSpans(tr: Tracer, counters: SparkCounters, file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file)
    try {
      out.println("[")
      out.println(tr.spans.map { s =>
        val c = counters.of(s.id.toString)
        s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "request": ${s.request}, """ +
          s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "self_ns": ${tr.selfTimeNs(s)}, """ +
          s""""jobs": ${c.jobs}, "tasks": ${c.tasks}, "task_ms": ${c.taskMs}, """ +
          s""""shuffle_bytes": ${c.shuffleBytes}, "spill_bytes": ${c.spillBytes}, """ +
          s""""peak_exec_bytes": ${c.peakExecBytes}}"""
      }.mkString(",\n"))
      out.println("]")
    } finally out.close()
  }
}
