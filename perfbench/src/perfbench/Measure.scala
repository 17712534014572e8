package perfbench

import scala.collection.mutable

/** Order statistics of a sample. */
object Stats {

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "empty sample")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Samples above the `p` quantile of `n` samples. */
  def samplesBeyond(n: Int, p: Double): Int = n - math.ceil(p * n - 1e-9).toInt

  /** A tail percentile is reported only with at least ten samples beyond it. */
  def reportable(n: Int, p: Double): Boolean = samplesBeyond(n, p) >= 10

  /** "median [q1, q3] (n=…)" plus the highest of p90/p95/p99 that is reportable. */
  def describe(xs: Seq[Double], unit: String): String =
    if (xs.isEmpty) "no samples"
    else {
      val tail = Seq(0.99, 0.95, 0.90).find(reportable(xs.size, _))
        .map(p => f", p${(p * 100).round}%d ${quantile(xs, p)}%.4f")
        .getOrElse("")
      f"median ${median(xs)}%.4f $unit [q1 ${quantile(xs, 0.25)}%.4f, q3 ${quantile(xs, 0.75)}%.4f]$tail (n=${xs.size})"
    }
}

/** Operation accounting: every call the benchmark makes into the program
  * is one attempted op. An exception or a failed output check marks it
  * failed; its time stays in the sample either way.
  */
final class Ops {
  var attempted = 0L
  var failed    = 0L
  val errors    = mutable.ArrayBuffer.empty[String]

  private def fail(name: String, why: String): Unit = {
    failed += 1
    if (errors.size < 20) errors += s"$name: $why"
  }

  /** Runs and times one op; `check` runs after the clock stops and returns
    * the problems it found. Returns the result (if any) and the time in ms.
    */
  def timed[A](name: String)(body: => A)(check: A => Seq[String]): (Option[A], Double) = {
    attempted += 1
    val t0 = System.nanoTime()
    val res =
      try Right(body)
      catch { case e: Exception => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    res match {
      case Left(e) => fail(name, e.toString); (None, ms)
      case Right(a) =>
        val problems =
          try check(a)
          catch { case e: Exception => Seq(s"check threw $e") }
        if (problems.nonEmpty) fail(name, problems.mkString("; "))
        (Some(a), ms)
    }
  }

  /** An output check that is an op of its own. */
  def verify(name: String, ok: Boolean, why: => String): Unit = {
    attempted += 1
    if (!ok) fail(name, why)
  }
}

/** What one timed iteration of a workload produced. */
final case class Sample(batchS: Double, callsMs: Seq[Double])

/** A workload: inputs built from the seed in `setup`, then iterations,
  * each of which is one closed-loop unit of work by one client.
  */
trait Workload {
  def name: String
  /** What `batch_s` and the calls are, in the report. */
  def batchName: String
  def callName: String
  /** How often set-up is repeated for the `setup_s` median. */
  def setupRepeats: Int
  /** Builds the inputs (timed as set-up). */
  def setup(): Unit
  /** Traced run only: re-runs, one by one on cached inputs, the layer
    * phases that set-up runs fused.
    */
  def traceSetup(tr: Tracer): Unit = ()
  /** Drops the set-up state before set-up is repeated. */
  def release(): Unit
  /** One timed unit of work, with its output checks. */
  def iteration(tr: Tracer): Sample
  /** Per-layer metrics the workload computes itself (traced run only). */
  def layerMetrics(tr: Tracer): Map[String, Double] = Map.empty
  /** Lines for the human-readable report. */
  def report(): Seq[String] = Nil
}

/** The measurement loop shared by every workload. */
object Runner {

  /** `samples` are traced in a traced run; `gcMs` is per sample. */
  final case class Result(setupS: Seq[Double], samples: Seq[Sample], gcMs: Seq[Double])

  private def gcMs(): Long = {
    import scala.jdk.CollectionConverters._
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(b => math.max(0L, b.getCollectionTime)).sum
  }

  /** Full GC outside any timed window, so one iteration's garbage is not
    * collected inside the next one's.
    */
  private def settle(): Unit = { System.gc(); System.gc() }

  /** Heap in use after a full GC, once two readings half a second apart
    * agree: Spark's ContextCleaner frees the blocks of unreachable
    * broadcasts (task binaries among them) on its own thread after a GC
    * has found them, so a single reading may still hold them.
    */
  def liveHeapMb(): Double = {
    def usedMb() = {
      settle()
      java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1024.0 / 1024.0
    }
    var last  = usedMb()
    var now   = last
    var tries = 0
    do {
      last = now
      Thread.sleep(500)
      now = usedMb()
      tries += 1
    } while (math.abs(now - last) > 0.5 && tries < 10)
    now
  }

  private val started = System.nanoTime()
  /** Progress on stderr, with the time since the JVM started the runner. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.2f s] $msg")

  /** Set-up, then measurement: untraced, or in a traced run with spans,
    * after which the traced run re-runs set-up's phases one by one.
    *
    * Nothing is discarded as warm-up: the first iteration after set-up is
    * measured, as a user of a fresh process sees it. A traced run measures
    * the same iterations, so its time minus an untraced run's is the
    * tracing overhead; set-up's phases re-run only afterwards, so they do
    * not warm the measured iterations.
    */
  def run(w: Workload, seconds: Double, traced: Option[Tracer]): Result = {
    val tr = traced.getOrElse(Tracer.Off)
    log("set-up")
    val setupS = (1 to w.setupRepeats).map { i =>
      if (i > 1) { w.release(); settle() }
      val t0 = System.nanoTime()
      w.setup()
      (System.nanoTime() - t0) / 1e9
    }
    settle()

    log("measure")
    val out = mutable.ArrayBuffer.empty[(Sample, Double)]
    val t0  = System.nanoTime()
    while (out.isEmpty || (System.nanoTime() - t0) / 1e9 < seconds) {
      val gc0 = gcMs()
      val s   = tr.request(tr.span(s"${w.name}.iteration")(w.iteration(tr)))
      out += ((s, (gcMs() - gc0).toDouble))
      settle()
    }
    if (tr.enabled) {
      log("set-up phases")
      tr.request(w.traceSetup(tr))
    }
    log("done")
    Result(setupS, out.map(_._1).toSeq, out.map(_._2).toSeq)
  }
}

/** Workloads run one after the other in each iteration, as one workload:
  * `batch_s` is the sum of theirs. Each part keeps its own set-up, input
  * and checks.
  */
final class Combined(val name: String, val batchName: String, parts: Seq[Workload])
    extends Workload {
  val callName     = ""
  val setupRepeats = parts.map(_.setupRepeats).min
  private val measured = parts.map(_ => mutable.ArrayBuffer.empty[Sample])

  def setup(): Unit = parts.foreach(_.setup())
  override def traceSetup(tr: Tracer): Unit = parts.foreach(_.traceSetup(tr))
  def release(): Unit = parts.foreach(_.release())

  def iteration(tr: Tracer): Sample = {
    val samples = parts.map(_.iteration(tr))
    samples.zip(measured).foreach { case (s, m) => m += s }
    Sample(samples.map(_.batchS).sum, Nil)
  }

  override def layerMetrics(tr: Tracer): Map[String, Double] =
    parts.map(_.layerMetrics(tr)).reduce(_ ++ _)

  override def report(): Seq[String] =
    parts.zip(measured).flatMap { case (p, m) =>
      Seq(f"${p.batchName}%-20s ${Stats.describe(m.map(_.batchS).toSeq, "s")}",
          f"${p.callName}%-20s ${Stats.describe(m.flatMap(_.callsMs).toSeq, "ms")}") ++ p.report()
    }
}
