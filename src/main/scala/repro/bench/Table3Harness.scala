package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.PipelineAbstraction
import repro.data.PipelineCorpus
import repro.substrate.baselines.GraphGen4Code
import repro.substrate.rdf.{Triple, TripleStore}

/** Table 3 — RDF graph size + analysis time for KGLiDS vs GraphGen4Code
  * over the synthetic pipeline corpus.
  */
object Table3Harness {

  case class SystemStats(
      system: String,
      triples: Long,
      uniqueNodes: Long,
      uniqueEdgeTypes: Long,
      sizeMb: Double,
      analysisSec: Double,
  )

  case class Result(corpusSize: Int, kglids: SystemStats, g4c: SystemStats) {
    def triplesReduction: Double = 1.0 - kglids.triples.toDouble / g4c.triples
    def timeReduction: Double    = 1.0 - kglids.analysisSec / g4c.analysisSec
  }

  /** Timed samples per system, after one untimed warm-up build of each. */
  val Samples = 5

  /** Abstract the corpus with both systems and collect stats. The
    * analysis time, like the paper's, covers graph generation into a
    * store; it is the median of [[Samples]] builds per system, the two
    * systems alternating which goes first, after an untimed warm-up
    * build of each.
    */
  def run(spark: SparkSession, corpusSize: Int = 300, seed: Long = 77): Result = {
    import spark.implicits._
    val corpus = spark.createDataset(
      PipelineCorpus.abstractionCorpus(corpusSize, seed)).cache()
    corpus.count()

    val builds = Seq[(String, () => Dataset[Triple])](
      "KGLiDS"        -> (() => PipelineAbstraction.abstractCorpus(spark, corpus)),
      "GraphGen4Code" -> (() => GraphGen4Code.abstractCorpus(spark, corpus)))
    def timed(build: () => Dataset[Triple]): Double = {
      val t0 = System.nanoTime()
      TripleStore.fromDataset(build())
      (System.nanoTime() - t0) / 1e9
    }
    val warm = builds.map { case (_, build) => TripleStore.fromDataset(build()) }
    val secs = (0 until Samples).flatMap { i =>
      val order = if (i % 2 == 0) builds else builds.reverse
      order.map { case (system, build) => system -> timed(build) }
    }.groupMap(_._1)(_._2)
    corpus.unpersist()

    val Seq(kglids, g4c) = builds.zip(warm).map { case ((system, _), store) =>
      val sorted = secs(system).sorted
      SystemStats(system, store.size, store.nodeCount, store.predicateCount,
        store.approxSerializedBytes / 1024.0 / 1024.0, sorted(sorted.size / 2))
    }
    Result(corpusSize, kglids, g4c)
  }

  def format(r: Result): String = {
    val sb = new StringBuilder
    sb.append(s"Corpus: ${r.corpusSize} synthetic pipelines\n")
    sb.append(f"${"Statistic"}%-24s${"KGLiDS"}%16s${"GraphGen4Code"}%16s\n")
    sb.append(f"${"No. triples (edges)"}%-24s${r.kglids.triples}%16d${r.g4c.triples}%16d\n")
    sb.append(f"${"No. unique nodes"}%-24s${r.kglids.uniqueNodes}%16d${r.g4c.uniqueNodes}%16d\n")
    sb.append(f"${"No. unique edges"}%-24s${r.kglids.uniqueEdgeTypes}%16d${r.g4c.uniqueEdgeTypes}%16d\n")
    sb.append(f"${"Size (MB)"}%-24s${r.kglids.sizeMb}%16.2f${r.g4c.sizeMb}%16.2f\n")
    sb.append(f"${"Analysis time (s)"}%-24s${r.kglids.analysisSec}%16.2f${r.g4c.analysisSec}%16.2f\n")
    sb.append(f"Graph reduction: ${r.triplesReduction * 100}%.1f%%   time reduction: ${r.timeReduction * 100}%.1f%%\n")
    sb.toString
  }
}
