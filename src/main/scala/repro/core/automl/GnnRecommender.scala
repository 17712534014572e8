package repro.core.automl

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.embed.TableEmbedding
import repro.core.graph.Lids
import repro.core.profile.{ColumnProfile, DataProfiler}
import repro.substrate.ml.OneLayerGnn
import repro.substrate.rdf.{Term, TriplePattern, TripleStore}

/** GNN-based on-demand automation (§4): node-classification models that
  * recommend a cleaning operation (table → op), a scaling transformation
  * (table → scaler), or a unary feature transformation (column → op),
  * trained on (dataset-node embedding, operation) examples extracted
  * from the LiDS graph by BGP queries and initialized with CoLR-derived
  * embeddings.
  */
final class GnnRecommender private (
    val gnn: OneLayerGnn,
    val classes: Seq[String],
    val missingOnly: Boolean,
) {

  /** Predict the operation for a pre-aggregated node embedding. */
  def predictFromEmbedding(emb: Array[Double]): String =
    classes(gnn.predict(emb))

  /** §4.1 inference for a profiled table: aggregate its column CoLRs
    * into the node embedding the model was trained on (over the
    * missing-value columns when `missingOnly`), classify.
    */
  def recommend(profiles: Seq[ColumnProfile]): String =
    predictFromEmbedding(
      if (missingOnly) TableEmbedding.forMissingValueColumns(profiles)
      else TableEmbedding.fromProfiles(profiles))

  /** §4.1 inference: profile the unseen DataFrame, then [[recommend]]. */
  def recommendForTable(spark: SparkSession, df: DataFrame): String =
    recommend(DataProfiler.profileTable(spark, "unseen", "t", df))
}

object GnnRecommender {

  /** A training example: a dataset-node embedding and the operation
    * data scientists applied to it.
    */
  case class Example(nodeId: String, embedding: Array[Double], label: String)

  /** Library functions that realize each cleaning operation (§4.2). */
  val CleaningFunctions: Map[String, String] = Map(
    Lids.libraryUri("pandas.DataFrame.fillna")         -> CleaningOps.Fillna,
    Lids.libraryUri("pandas.DataFrame.interpolate")    -> CleaningOps.Interpolate,
    Lids.libraryUri("sklearn.impute.SimpleImputer")    -> CleaningOps.SimpleImputer,
    Lids.libraryUri("sklearn.impute.KNNImputer")       -> CleaningOps.KnnImputer,
    Lids.libraryUri("sklearn.impute.IterativeImputer") -> CleaningOps.IterativeImputer,
  )

  /** Library functions that realize each table-scaling transformation. */
  val ScalerFunctions: Map[String, String] = Map(
    Lids.libraryUri("sklearn.preprocessing.StandardScaler") -> TransformOps.StandardScaler,
    Lids.libraryUri("sklearn.preprocessing.MinMaxScaler")   -> TransformOps.MinMaxScaler,
    Lids.libraryUri("sklearn.preprocessing.RobustScaler")   -> TransformOps.RobustScaler,
  )

  /** Library functions that realize each unary column transformation. */
  val UnaryFunctions: Map[String, String] = Map(
    Lids.libraryUri("numpy.log")   -> TransformOps.Log,
    Lids.libraryUri("numpy.log1p") -> TransformOps.Log,
    Lids.libraryUri("numpy.sqrt")  -> TransformOps.Sqrt,
  )

  /** Extract (tableId, operation) examples from pipeline named graphs:
    * a pipeline reads table ?t in one statement and calls an operation
    * function ?f in another statement of the same named graph.
    */
  def extractTableOpExamples(store: TripleStore,
                             opOfFunction: Map[String, String]): Seq[(String, String)] = {
    val bindings = store.index.select(Seq(
      TriplePattern(Term("?s1"), Term.Lit(Lids.Prop.ReadsTable), Term("?t"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?s2"), Term.Lit(Lids.Prop.CallsFunction), Term("?f"),
                    graph = Some(Term.Var("g"))),
    ))
    bindings.flatMap { r =>
      val tableId = Lids.idOf(r.getAs[String]("t"))
      opOfFunction.get(r.getAs[String]("f")).map(op => (tableId, op))
    }
  }

  /** Extract (columnId, operation) examples: one statement both reads
    * column ?c and calls the unary function ?f.
    */
  def extractColumnOpExamples(store: TripleStore,
                              opOfFunction: Map[String, String]): Seq[(String, String)] = {
    val bindings = store.index.select(Seq(
      TriplePattern(Term("?s"), Term.Lit(Lids.Prop.ReadsColumn), Term("?c"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term("?f"),
                    graph = Some(Term.Var("g"))),
    ))
    bindings.flatMap { r =>
      val columnId = Lids.idOf(r.getAs[String]("c"))
      opOfFunction.get(r.getAs[String]("f")).map(op => (columnId, op))
    }
  }

  val Epochs = 400

  /** Train a recommender on examples over a fixed class vocabulary. */
  def train(examples: Seq[Example], classes: Seq[String],
            missingOnly: Boolean = false, seed: Long = 42L): GnnRecommender = {
    require(examples.nonEmpty, "no training examples extracted from the KG")
    val dim = examples.head.embedding.length
    val gnn = new OneLayerGnn(dim, classes.size, epochs = Epochs, seed = seed)
    val feats  = examples.map(_.embedding).toArray
    val labels = examples.map(e => classes.indexOf(e.label)).toArray
    require(labels.forall(_ >= 0), "example label outside class vocabulary")
    gnn.fit(feats, labels)
    new GnnRecommender(gnn, classes, missingOnly)
  }
}
