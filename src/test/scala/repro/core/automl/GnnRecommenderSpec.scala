package repro.core.automl

import repro.SparkSpec
import repro.core.embed.{ColrModel, TableEmbedding}
import repro.data.MlDatasets

/** End-to-end on-demand automation (§4): corpus → LiDS graph → example
  * extraction → GNN training → recommendation on unseen datasets.
  */
class GnnRecommenderSpec extends SparkSpec {

  private lazy val trainedCleaning = AutomationTrainer.trainOn(
    spark, MlDatasets.cleaningTrainingCorpus(3), pipelinesPer = 4, seed = 1)

  private lazy val trainedTransform = AutomationTrainer.trainOn(
    spark, MlDatasets.transformTrainingCorpus(3), pipelinesPer = 4, seed = 2)

  test("KG extraction recovers (table, cleaning-op) examples") {
    val ex = GnnRecommender.extractTableOpExamples(
      trainedCleaning.store, GnnRecommender.CleaningFunctions)
    assert(ex.nonEmpty)
    assert(ex.forall { case (t, op) =>
      t.endsWith("/data") && CleaningOps.All.contains(op) })
    // every training dataset contributes examples
    assert(ex.map(_._1).distinct.size >= 10)
  }
  test("KG extraction recovers (table, scaler) examples") {
    val ex = GnnRecommender.extractTableOpExamples(
      trainedTransform.store, GnnRecommender.ScalerFunctions)
    assert(ex.nonEmpty)
    assert(ex.map(_._2).distinct.size >= 2)
  }
  test("KG extraction recovers (column, unary-op) examples") {
    val ex = GnnRecommender.extractColumnOpExamples(
      trainedTransform.store, GnnRecommender.UnaryFunctions)
    assert(ex.nonEmpty)
    assert(ex.forall(_._2 == TransformOps.Log) || ex.exists(_._2 == TransformOps.Sqrt))
  }
  test("majority of extracted cleaning examples match the family's best op") {
    val bestOf = MlDatasets.cleaningTrainingCorpus(3).map(d => s"${d.name}/data" -> d.bestCleaning).toMap
    val ex = GnnRecommender.extractTableOpExamples(
      trainedCleaning.store, GnnRecommender.CleaningFunctions)
    val agree = ex.count { case (t, op) => bestOf.get(t).contains(op) }
    assert(agree * 10 >= ex.size * 6, s"$agree of ${ex.size}")
  }
  test("cleaning recommender fits its training tables") {
    val bestOf = MlDatasets.cleaningTrainingCorpus(3)
      .map(d => s"${d.name}/data" -> d.bestCleaning).toMap
    val hits = trainedCleaning.profilesByTable.toSeq.map { case (tid, ps) =>
      val rec = trainedCleaning.cleaning.predictFromEmbedding(
        TableEmbedding.forMissingValueColumns(ps))
      if (bestOf.get(tid).contains(rec)) 1 else 0
    }
    assert(hits.sum * 10 >= hits.size * 5, s"${hits.sum} of ${hits.size} training tables")
  }
  test("cleaning recommendation on unseen datasets is a valid operation") {
    val unseen = MlDatasets.cleaningBenchmark.take(3)
    unseen.foreach { d =>
      val rec = trainedCleaning.cleaning.recommendForTable(spark, d.generate(spark))
      assert(CleaningOps.All.contains(rec))
    }
  }
  test("scaler recommendation on unseen datasets is a valid scaler") {
    val d   = MlDatasets.transformBenchmark.head
    val rec = trainedTransform.scaler.recommendForTable(spark, d.generate(spark))
    assert(TransformOps.Scalers.contains(rec))
  }
  test("unary recommender flags lognormal columns for log") {
    val rng  = new scala.util.Random(4)
    val logn = (1 to 500).map(_ => f"${math.exp(rng.nextGaussian() * 1.3)}%.5f")
    val rec  = trainedTransform.unary.predictFromEmbedding(ColrModel.embed("float", logn))
    assert(TransformOps.Unaries.contains(rec))
  }
  test("table index finds the most similar training dataset") {
    val (tid, ps) = trainedCleaning.profilesByTable.head
    val near = trainedCleaning.tableIndex.nearest(TableEmbedding.fromProfiles(ps))
    assert(near.map(_._1).contains(tid))
  }
  test("training with no examples is rejected") {
    intercept[IllegalArgumentException] {
      GnnRecommender.train(Seq.empty, CleaningOps.All)
    }
  }
  test("training rejects labels outside the class vocabulary") {
    intercept[IllegalArgumentException] {
      GnnRecommender.train(
        Seq(GnnRecommender.Example("t", Array(1.0, 2.0), "NotAnOp")),
        CleaningOps.All)
    }
  }
}
