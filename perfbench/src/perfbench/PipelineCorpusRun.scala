package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.{PipelineAbstraction, ScriptRecord}
import repro.data.PipelineCorpus
import repro.substrate.python.PyAst.{PyExprStmt, PyOpaque}
import repro.substrate.python.PyParser
import repro.substrate.rdf.TripleStore

/** `pipeline_corpus`, the second part of `kg_build`: pipeline abstraction
  * of a script corpus (Table 3).
  *
  * Set-up builds the corpus as a cached Dataset. Each iteration abstracts
  * it with Spark into a cached, materialized triple store, which is
  * `batch_s`. Once per run the Spark driver also abstracts every script on
  * its own, timing each (the calls: the cost of adding one pipeline), and
  * the two paths must agree on the triple count.
  */
final class PipelineCorpusRun(spark: SparkSession, seed: Long, ops: Ops) extends Workload {
  import spark.implicits._

  val name         = "pipeline_corpus"
  val batchName    = "analysis_s"
  val callName     = "abstract_script_ms"
  val setupRepeats = 3

  private var records: Seq[ScriptRecord]    = Nil
  private var corpus: Dataset[ScriptRecord] = _
  private var driverTriples                 = Option.empty[Long]
  private var storeSize                     = Option.empty[Long]
  private val libraryTriples                = PipelineAbstraction.libraryGraph().size

  def setup(): Unit = {
    records = PipelineCorpus.abstractionCorpus(PipelineCorpusRun.Scripts, Main.derive(seed, "corpus"))
    corpus = spark.createDataset(records).cache()
    corpus.count()
  }

  def release(): Unit = corpus.unpersist(blocking = true)

  private def buildStore(tr: Tracer): TripleStore =
    if (!tr.enabled) TripleStore.fromDataset(PipelineAbstraction.abstractCorpus(spark, corpus)).cache()
    else {
      val graphs = tr.span("pipeline.corpus") {
        val g = PipelineAbstraction.abstractCorpus(spark, corpus).cache(); g.count(); g
      }
      val store = tr.span("rdf.store_build") {
        val s = TripleStore.fromDataset(graphs).cache(); s.size; s
      }
      graphs.unpersist()
      store
    }

  def iteration(tr: Tracer): Sample = {
    val (store, analysisMs) = ops.timed("abstractCorpus") {
      val s = buildStore(tr)
      (s, s.size)
    } { case (_, n) =>
      val stable = storeSize.forall(_ == n)
      if (storeSize.isEmpty) storeSize = Some(n)
      if (stable) Nil else Seq(s"store size changed: $n vs ${storeSize.get}")
    }
    store.foreach { case (s, _) => s.unpersist() }
    tr.count("rdf.triples", store.map(_._2.toDouble).getOrElse(0.0))

    // The driver-side pass gives the per-script latencies and the count the
    // Spark store must match; its output does not change between
    // iterations, so it runs once per run, and again when traced.
    val calls =
      if (driverTriples.nonEmpty && !tr.enabled) Nil
      else {
        var total = 0L
        val ms = records.map { rec =>
          if (tr.enabled) {
            val stmts = tr.span("python.parse")(PyParser.parse(rec.script))
            tr.count("python.statements", stmts.size.toDouble)
            tr.count("python.opaque_statements",
              stmts.count { case PyExprStmt(PyOpaque(_), _, _, _) => true; case _ => false }.toDouble)
          }
          val (triples, ms) = ops.timed("abstractScript") {
            tr.span("pipeline.abstract")(PipelineAbstraction.abstractScript(rec))
          }(_ => Nil)
          total += triples.map(_.size).getOrElse(0)
          ms
        }
        tr.count("pipeline.triples", total.toDouble)
        driverTriples = Some(total)
        ms
      }
    for ((_, n) <- store; d <- driverTriples)
      ops.verify("store matches driver", n == d + libraryTriples,
        s"Spark store has $n triples, driver ${d + libraryTriples}")
    Sample(analysisMs / 1e3, calls)
  }

  override def layerMetrics(tr: Tracer): Map[String, Double] = {
    val stmts  = Stats.median(tr.countsOf("python.statements"))
    val opaque = Stats.median(tr.countsOf("python.opaque_statements"))
    Map("python.coverage" -> (1.0 - opaque / stmts))
  }

  override def report(): Seq[String] = Seq(
    s"corpus: ${records.size} scripts; store ${storeSize.getOrElse(0L)} triples " +
      s"(library graph $libraryTriples)")
}

object PipelineCorpusRun {
  /** Scripts in the corpus. */
  val Scripts = 5000
}
