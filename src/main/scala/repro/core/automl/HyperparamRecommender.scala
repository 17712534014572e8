package repro.core.automl

import repro.core.graph.Lids
import repro.substrate.ml.VectorIndex
import repro.substrate.rdf.{Term, TriplePattern, TripleStore}

/** Hyperparameter recommendation from the LiDS graph (§4.4, §6.3.3).
  *
  * The LiDS graph stores, for every ML-estimator call, the complete set
  * of (hyperparameter name, value) pairs — including implicit positional
  * and default ones recovered by documentation analysis. For an unseen
  * dataset, KGLiDS finds the most similar dataset in the graph (cosine
  * over table embeddings), collects the estimator calls of that
  * dataset's top-voted pipelines, and returns the most common value per
  * hyperparameter. KGpip uses this as the starting point that prunes its
  * search space.
  */
object HyperparamRecommender {

  val TopPipelines = 20

  /** Most-common hyperparameter values used with `estimator` (a dotted
    * library path) in the [[TopPipelines]] top-voted pipelines of the
    * table most similar to `queryEmbedding`.
    *
    * @param tableIndex table-embedding index over the KG's tables
    */
  def recommend(store: TripleStore, tableIndex: VectorIndex,
                queryEmbedding: Array[Double], estimator: String): Map[String, String] = {
    tableIndex.nearest(queryEmbedding) match {
      case None => Map.empty
      case Some((tableId, _)) =>
        val params = paramsUsedWith(store, tableId, estimator, TopPipelines)
        params
          .groupBy(_._1)
          .map { case (name, vs) =>
            name -> vs.groupBy(_._2).maxBy { case (v, g) => (g.size, v) }._1
          }
    }
  }

  /** All (param, value) pairs of `estimator` calls in the top-voted
    * pipelines that read `tableId`. A pipeline whose votes are not an
    * integer ranks after every voted one.
    */
  def paramsUsedWith(store: TripleStore, tableId: String, estimator: String,
                     topPipelines: Int): Seq[(String, String)] = {
    val tableUri = Lids.ResourcePrefix + tableId
    val rows = store.index.select(Seq(
      TriplePattern(Term("?s1"), Term.Lit(Lids.Prop.ReadsTable), Term.Lit(tableUri),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.HasVotes), Term("?votes"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?s2"), Term.Lit(Lids.Prop.CallsFunction),
                    Term.Lit(Lids.libraryUri(estimator)), graph = Some(Term.Var("g"))),
      TriplePattern(Term("?s2"), Term.Lit(Lids.Prop.HasParameter), Term("?param"),
                    graph = Some(Term.Var("g"))),
    ))

    rows
      .map(r => (r.getAs[String]("g"), r.getAs[String]("votes").trim.toIntOption,
                 r.getAs[String]("param")))
      .distinct
      .groupBy(_._1).toSeq
      // top-voted first; a pipeline whose votes are not an integer last
      .sortBy { case (g, entries) => (entries.head._2.fold(Long.MaxValue)(-_.toLong), g) }
      .take(topPipelines)
      .flatMap(_._2.map(_._3))
      .flatMap { kv =>
        kv.split("=", 2) match {
          case Array(k, v) => Some(k -> v)
          case _           => None
        }
      }
  }
}
