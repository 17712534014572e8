package repro.substrate.baselines

import org.apache.spark.sql.DataFrame

import repro.substrate.ml.{TaskEvaluator, VectorIndex}

/** KGpip-style AutoML (§4.4, §6.3.3): pick an estimator by
  * graph/embedding similarity to seen datasets, then search
  * hyperparameters within a time budget.
  *
  * `Pip_G4C` explores the full grid from a fixed starting point;
  * `Pip_LiDS` (KGLiDS's revision) seeds the search with the
  * hyperparameters recommended from the LiDS graph, pruning the space —
  * within the same budget it reaches better configurations (the Fig. 9
  * effect, exercised in tests).
  */
final class KgpipLike(datasetIndex: VectorIndex,
                      estimatorOf: Map[String, String]) {

  /** Grid over random-forest hyperparameters (the search space). */
  val grid: Seq[(Int, Int)] =
    for (trees <- Seq(10, 25, 50, 100, 200); depth <- Seq(3, 5, 8, 12))
      yield (trees, depth)

  private val folds = 3 // cross-validation folds per configuration

  /** Estimator predicted for an unseen dataset embedding. */
  def selectEstimator(embedding: Array[Double]): Option[String] =
    datasetIndex.nearest(embedding).flatMap { case (id, _) => estimatorOf.get(id) }

  /** Budgeted hyperparameter search. `warmStart` (from the LiDS graph)
    * is evaluated first and the rest of the grid is ordered by distance
    * to it; without it, the grid is scanned in fixed order. Returns the
    * best (score, config) reached within `budgetConfigs` evaluations —
    * the evaluation-count analogue of the paper's 40-second budget.
    */
  def searchHyperparams(df: DataFrame, labelCol: String, featureCols: Seq[String],
                        warmStart: Option[(Int, Int)], budgetConfigs: Int): (Double, (Int, Int)) = {
    val ordered = warmStart match {
      case None => grid
      case Some((wt, wd)) =>
        grid.sortBy { case (t, dpt) =>
          (math.abs(t - wt).toDouble / 200 + math.abs(dpt - wd).toDouble / 12,
           t, dpt)
        }
    }
    ordered.take(math.max(1, budgetConfigs)).map { case (trees, depth) =>
      val score = TaskEvaluator.crossValidate(df, labelCol, featureCols,
        TaskEvaluator.RandomForest(trees, depth), k = folds)
      (score, (trees, depth))
    }.maxBy { case (s, (t, dpt)) => (s, -t, -dpt) }
  }
}
