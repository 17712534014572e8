package repro.core.automl

import org.apache.spark.sql.SparkSession

import repro.core.embed.TableEmbedding
import repro.core.graph.LidsGraphBuilder
import repro.core.profile.{ColumnProfile, DataProfiler, FineGrainedType}
import repro.data.{MlDataset, PipelineCorpus}
import repro.substrate.ml.VectorIndex
import repro.substrate.rdf.TripleStore

/** Offline training of the on-demand automation models (§4.1):
  * profile the training datasets, abstract their pipeline corpus, build
  * the LiDS graph, extract (dataset-node, operation) examples by KG
  * queries, initialize node embeddings from CoLR, and train the three
  * GNN recommenders (cleaning, table scaler, unary column transform).
  */
object AutomationTrainer {

  /** Everything the automation benches need after offline training. */
  case class Trained(
      store: TripleStore,
      profilesByTable: Map[String, Seq[ColumnProfile]],
      cleaning: GnnRecommender,
      scaler: GnnRecommender,
      unary: GnnRecommender,
      tableIndex: VectorIndex,
  )

  /** Profile each training dataset with [[DataProfiler.profileTable]] + abstract the pipelines → LiDS graph. */
  def buildKg(spark: SparkSession, datasets: Seq[MlDataset], pipelinesPer: Int,
              seed: Long): (TripleStore, Map[String, Seq[ColumnProfile]]) = {
    import spark.implicits._
    val profiles = datasets.flatMap(d => DataProfiler.profileTable(spark, d.name, "data", d.generate(spark)))
    val scripts = PipelineCorpus.forDatasets(
      datasets.map(PipelineCorpus.refOf), pipelinesPer, seed)
    val store = LidsGraphBuilder.build(spark, profiles, spark.createDataset(scripts))
    (store, profiles.groupBy(_.tableId))
  }

  /** Train all three recommenders from a built KG. */
  def train(store: TripleStore, profilesByTable: Map[String, Seq[ColumnProfile]],
            seed: Long = 42L): Trained = {
    // (table, op) examples of the functions, each table embedded by `embed`
    def tableExamples(functions: Map[String, String],
                      embed: Seq[ColumnProfile] => Array[Double]) =
      GnnRecommender.extractTableOpExamples(store, functions).flatMap { case (tableId, op) =>
        profilesByTable.get(tableId).map(ps => GnnRecommender.Example(tableId, embed(ps), op))
      }

    // ---- cleaning: (table, op), embeddings over missing-value columns
    val cleaning = GnnRecommender.train(
      tableExamples(GnnRecommender.CleaningFunctions, TableEmbedding.forMissingValueColumns),
      CleaningOps.All, missingOnly = true, seed = seed)

    // ---- table scaler: (table, scaler), embeddings over all columns
    val scaler = GnnRecommender.train(
      tableExamples(GnnRecommender.ScalerFunctions, TableEmbedding.fromProfiles),
      TransformOps.Scalers, seed = seed)

    // ---- unary column transform: (column, op) positives from the KG,
    // untouched columns as 'none' negatives (balanced)
    val profileOfColumn = profilesByTable.values.flatten
      .map(p => p.columnId -> p).toMap
    val positives = GnnRecommender
      .extractColumnOpExamples(store, GnnRecommender.UnaryFunctions)
      .flatMap { case (columnId, op) =>
        profileOfColumn.get(columnId).map(p =>
          GnnRecommender.Example(columnId, p.embedding, op))
      }
    val touched = positives.map(_.nodeId).toSet
    val negatives = profileOfColumn.values.toSeq
      .filter(p => !touched(p.columnId) &&
        FineGrainedType.isNumeric(p.fgType))
      .sortBy(_.columnId)
      .take(math.max(8, positives.size))
      .map(p => GnnRecommender.Example(p.columnId, p.embedding, TransformOps.None))
    val unary = GnnRecommender.train(
      positives ++ negatives, TransformOps.Unaries, seed = seed)

    // ---- table-embedding index (Faiss stand-in) for similarity lookups
    val index = new VectorIndex(TableEmbedding.Dim)
    profilesByTable.toSeq.sortBy(_._1).foreach { case (tid, ps) =>
      index.add(tid, TableEmbedding.fromProfiles(ps))
    }

    Trained(store, profilesByTable, cleaning, scaler, unary, index)
  }

  /** Full offline phase: KG construction + model training. */
  def trainOn(spark: SparkSession, datasets: Seq[MlDataset],
              pipelinesPer: Int = 4, seed: Long = 42L): Trained = {
    val (store, byTable) = buildKg(spark, datasets, pipelinesPer, seed)
    train(store, byTable, seed)
  }
}
