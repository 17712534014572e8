package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.graph.Lids
import repro.core.pipeline.PipelineAbstraction
import repro.data.PipelineCorpus
import repro.substrate.baselines.GraphGen4Code
import repro.substrate.rdf.TripleStore

/** Table 4 — breakdown of the generated graphs by modelled aspect, for
  * KGLiDS and GraphGen4Code on the same corpus.
  */
object Table4Harness {

  /** Row order follows the paper's Table 4. */
  val AspectOrder: Seq[String] = Seq(
    "Dataset reads", "Library hierarchy", "RDF node types",
    "Statement location", "Variable names", "Func. parameter order",
    "Column reads", "Library calls", "Code flow", "Data flow",
    "Control flow type", "Func. parameters", "Statement text")

  case class Breakdown(total: Long, byAspect: Map[String, Long]) {
    def share(aspect: String): Double =
      byAspect.getOrElse(aspect, 0L).toDouble / math.max(1L, total)
  }

  case class Result(kglids: Breakdown, g4c: Breakdown)

  private def breakdown(store: TripleStore, aspects: Map[String, String],
                        extraTypeAspects: Boolean): Breakdown = {
    val byPred = store.countByPredicate()
    val byAspect = byPred.toSeq
      .flatMap { case (p, n) =>
        aspects.get(p).map(_ -> n)
          .orElse(if (extraTypeAspects && p == Lids.Prop.RdfType)
                    Some("RDF node types" -> n)
                  else None)
      }
      .groupBy(_._1).map { case (a, xs) => a -> xs.map(_._2).sum }
    Breakdown(byPred.values.sum, byAspect)
  }

  def run(spark: SparkSession, corpusSize: Int = 300): Result = {
    import spark.implicits._
    val corpus = spark.createDataset(
      PipelineCorpus.abstractionCorpus(corpusSize, Table3Harness.CorpusSeed)).cache()
    corpus.count()
    val kStore = TripleStore.fromDataset(PipelineAbstraction.abstractCorpus(spark, corpus))
    val gStore = TripleStore.fromDataset(GraphGen4Code.abstractCorpus(spark, corpus))
    val res = Result(
      breakdown(kStore, Lids.Aspects, extraTypeAspects = true),
      breakdown(gStore, GraphGen4Code.Aspects, extraTypeAspects = false))
    corpus.unpersist()
    res
  }

  def format(r: Result): String = {
    val sb = new StringBuilder
    sb.append(f"${"Modelled Aspect"}%-26s${"KGLiDS"}%12s${"%"}%7s${"GraphGen4Code"}%16s${"%"}%7s\n")
    AspectOrder.foreach { a =>
      def cell(b: Breakdown) = b.byAspect.get(a) match {
        case Some(n) => (n.toString, f"${b.share(a) * 100}%.1f")
        case None    => ("-", "-")
      }
      val (kn, kp) = cell(r.kglids)
      val (gn, gp) = cell(r.g4c)
      sb.append(f"$a%-26s$kn%12s$kp%7s$gn%16s$gp%7s\n")
    }
    sb.append(f"${"Total"}%-26s${r.kglids.total}%12d${"100"}%7s${r.g4c.total}%16d${"100"}%7s\n")
    sb.toString
  }
}
