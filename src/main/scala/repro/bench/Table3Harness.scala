package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.pipeline.PipelineAbstraction
import repro.data.PipelineCorpus
import repro.substrate.baselines.GraphGen4Code
import repro.substrate.rdf.TripleStore

/** Table 3 — RDF graph size + analysis time for KGLiDS vs GraphGen4Code
  * over the synthetic pipeline corpus.
  */
object Table3Harness {

  val CorpusSeed = 77L

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

  /** Abstract the corpus with both systems and collect stats. The
    * analysis time, like the paper's, covers graph generation into a
    * store; it is timed by [[Timing.warmMedian]].
    */
  def run(spark: SparkSession, corpusSize: Int = 300): Result = {
    import spark.implicits._
    val corpus = spark.createDataset(
      PipelineCorpus.abstractionCorpus(corpusSize, CorpusSeed)).cache()
    corpus.count()
    val Seq(kglids, g4c) = Timing.warmMedian(Seq(
      () => TripleStore.fromDataset(PipelineAbstraction.abstractCorpus(spark, corpus)),
      () => TripleStore.fromDataset(GraphGen4Code.abstractCorpus(spark, corpus)),
    )).zip(Seq("KGLiDS", "GraphGen4Code")).map { case ((store, secs), system) =>
      SystemStats(system, store.size, store.nodeCount, store.predicateCount,
        store.approxSerializedBytes / 1024.0 / 1024.0, secs)
    }
    corpus.unpersist()
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
