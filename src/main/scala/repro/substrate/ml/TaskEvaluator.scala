package repro.substrate.ml

import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.evaluation.MulticlassClassificationEvaluator
import org.apache.spark.ml.feature.{StringIndexer, VectorAssembler}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.substrate.ml.Cells.numAt

/** Downstream ML-task scoring (§6.3): "clean/transform the dataset with
  * each system, train a classifier with k-fold cross-validation, report
  * F1/accuracy". Each [[TaskEvaluator.Learner]] fixes its metric: the
  * random forest, the paper's evaluation model for cleaning (Table 5) and
  * the KGpip search space, is scored by F1; transformation (Table 6) is
  * scored by the accuracy of a fixed-step SGD softmax classifier, a
  * scale-sensitive learner, so scaling/log effects are measurable at
  * container scale (documented in EXPERIMENTS.md).
  */
object TaskEvaluator {

  /** Downstream learner; its case decides the metric. */
  sealed trait Learner

  /** Spark MLlib random forest, scored by F1. */
  final case class RandomForest(numTrees: Int, maxDepth: Int) extends Learner

  /** Driver-side fixed-step SGD softmax classifier, scored by accuracy.
    * Plain gradient descent's convergence degrades with the
    * feature-scale condition number, which is exactly the effect
    * normalization/scaling addresses (the paper's §4.3 motivation).
    */
  case object SoftmaxSgd extends Learner {
    val Epochs       = 600
    val LearningRate = 0.05
    val BatchSize    = 64
    /** Rows collected to the driver at most. */
    val MaxRows      = 60000
  }

  /** The seed of the fold assignment and of each learner. */
  val Seed = 7L

  /** k-fold cross-validated score × 100. Returns 0.0 on degenerate input
    * (too few rows or a single class — the paper's 00.00 rows for the
    * drop-nulls baseline on mostly-null datasets).
    */
  def crossValidate(df: DataFrame, labelCol: String, featureCols: Seq[String],
                    learner: Learner, k: Int = 5): Double = {
    val clean = df.na.drop(featureCols :+ labelCol)
    val n     = clean.count()
    if (n < 4L * k) return 0.0
    if (clean.select(labelCol).distinct().count() < 2) return 0.0
    learner match {
      case rf: RandomForest => forestCrossValidate(clean, labelCol, featureCols, k, rf)
      case SoftmaxSgd       => sgdCrossValidate(clean, labelCol, featureCols, k)
    }
  }

  private def forestCrossValidate(df: DataFrame, labelCol: String, featureCols: Seq[String],
                                  k: Int, rf: RandomForest): Double = {
    val indexed = new StringIndexer()
      .setInputCol(labelCol).setOutputCol("__label").setHandleInvalid("skip")
      .fit(df).transform(df)
    val assembled = new VectorAssembler()
      .setInputCols(featureCols.toArray).setOutputCol("features")
      .setHandleInvalid("skip")
      .transform(indexed)
      .withColumn("__fold", (rand(Seed) * k).cast("int"))
      .cache()

    try {
      val evaluator = new MulticlassClassificationEvaluator()
        .setLabelCol("__label").setPredictionCol("prediction")
        .setMetricName("f1")
      val scores = (0 until k).flatMap { fold =>
        val train = assembled.filter(col("__fold") =!= fold)
        val test  = assembled.filter(col("__fold") === fold)
        if (train.isEmpty || test.isEmpty ||
            train.select("__label").distinct().count() < 2) None
        else {
          val model = new RandomForestClassifier()
            .setLabelCol("__label").setFeaturesCol("features")
            .setNumTrees(rf.numTrees).setMaxDepth(rf.maxDepth)
            .setSeed(Seed)
            .fit(train)
          Some(evaluator.evaluate(model.transform(test)))
        }
      }
      if (scores.isEmpty) 0.0 else scores.sum / scores.size * 100.0
    } finally assembled.unpersist()
  }

  private def sgdCrossValidate(df: DataFrame, labelCol: String, featureCols: Seq[String],
                               k: Int): Double = {
    val rows = df.select((featureCols :+ labelCol).map(col): _*)
      .limit(SoftmaxSgd.MaxRows).collect()
    val d = featureCols.size
    val feats   = rows.map(r => Array.tabulate(d)(numAt(r, _)))
    val classes = rows.map(_.get(d).toString).distinct.sorted
    if (classes.length < 2) return 0.0
    val labels = rows.map(r => classes.indexOf(r.get(d).toString))
    val rng    = new scala.util.Random(Seed)
    val fold   = Array.fill(rows.length)(rng.nextInt(k))

    val accs = (0 until k).flatMap { f =>
      val trainIdx = feats.indices.filter(fold(_) != f).toArray
      val testIdx  = feats.indices.filter(fold(_) == f).toArray
      if (trainIdx.isEmpty || testIdx.isEmpty ||
          trainIdx.map(labels).distinct.length < 2) None
      else {
        val gnn = new OneLayerGnn(d, classes.length, learningRate = SoftmaxSgd.LearningRate,
          epochs = SoftmaxSgd.Epochs, batchSize = SoftmaxSgd.BatchSize, seed = Seed)
        gnn.fit(trainIdx.map(feats), trainIdx.map(labels))
        val correct = testIdx.count(i => gnn.predict(feats(i)) == labels(i))
        Some(correct.toDouble / testIdx.length)
      }
    }
    if (accs.isEmpty) 0.0 else accs.sum / accs.size * 100.0
  }
}
