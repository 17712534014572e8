package repro.substrate.baselines

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

import repro.substrate.ml.Cells.numAt
import repro.substrate.ml.ResourceGovernor

/** AutoLearn — regression-based automated feature generation (§6.3.2).
  *
  * Per the published algorithm: (1) compute *distance correlation*
  * between every ordered feature pair — an O(n²) computation per pair
  * that materializes pairwise-distance matrices (the transient memory
  * the governor polices; the dominant cost that blows the time budget on
  * the larger datasets, the paper's TO rows); (2) classify correlated
  * pairs as linearly or non-linearly related; (3) generate predicted +
  * residual features from per-pair regressions (linear, or binned-mean
  * for non-linear); (4) select stable generated features by their
  * distance correlation with the original feature set.
  */
final class AutoLearnLike {
  private val dcorThreshold = 0.5
  private val linearThreshold = 0.85
  private val maxGenerated = 60
  private val distMatrixCap = 25000

  /** Transform the dataset: original features + generated features.
    * Returns (transformedDf, generatedFeatureNames).
    */
  def transform(spark: SparkSession, df: DataFrame, featureCols: Seq[String],
                labelCol: String, gov: ResourceGovernor): (DataFrame, Seq[String]) = {
    val rows = df.select((featureCols :+ labelCol)
      .map(org.apache.spark.sql.functions.col): _*).collect()
    val n = rows.length
    val d = featureCols.size
    val X = Array.tabulate(d)(j => rows.map(r => numAt(r, j)))

    // ---- phase 1: pairwise distance correlation over all ordered pairs
    val m = math.min(n, distMatrixCap)
    // the full n×n double distance matrix AutoLearn materializes per pair
    gov.ensureFits(m.toLong * m * 8L)
    val correlated = mutable.ArrayBuffer.empty[(Int, Int, Boolean)] // (i, j, isLinear)
    var i = 0
    while (i < d) {
      var j = 0
      while (j < d) {
        if (i != j) {
          gov.checkTime()
          val dc = distanceCorrelation(X(i), X(j), m)
          if (dc >= dcorThreshold) {
            val pc = math.abs(pearson(X(i), X(j)))
            correlated += ((i, j, pc >= linearThreshold))
          }
        }
        j += 1
      }
      i += 1
    }

    // ---- phases 2+3: generated features (predicted + residual per pair)
    val generated = mutable.ArrayBuffer.empty[(String, Array[Double])]
    correlated.take(maxGenerated / 2).foreach { case (fi, fj, isLinear) =>
      gov.checkTime()
      val pred =
        if (isLinear) linearPredict(X(fi), X(fj))
        else binnedPredict(X(fi), X(fj), bins = 16)
      val resid = Array.tabulate(n)(r => X(fj)(r) - pred(r))
      gov.charge(n.toLong * 16L) // two generated feature columns
      generated += ((s"gen_p_${fi}_$fj", pred))
      generated += ((s"gen_r_${fi}_$fj", resid))
    }

    // ---- phase 4: stability selection — dcor of each generated feature
    // against each original feature (another O(g·d·n²) pass)
    val kept = generated.filter { case (_, vals) =>
      gov.checkTime()
      var best = 0.0
      var j = 0
      while (j < d && best < dcorThreshold) {
        best = math.max(best, distanceCorrelation(vals, X(j), math.min(m, 2000)))
        j += 1
      }
      best >= dcorThreshold * 0.5
    }

    val outCols = featureCols ++ kept.map(_._1)
    val outRows = (0 until n).map { r =>
      Row.fromSeq(
        featureCols.indices.map(j => X(j)(r)) ++
          kept.map(_._2(r)) :+ rows(r).get(d))
    }
    val schema = StructType(
      outCols.map(c => StructField(c, DoubleType, nullable = false)) :+
        StructField(labelCol, df.schema(labelCol).dataType, nullable = true))
    val out = spark.createDataFrame(
      spark.sparkContext.parallelize(outRows.toIndexedSeq), schema)
    (out, kept.map(_._1).toSeq)
  }

  /** Distance correlation on the first `m` rows (Székely's statistic;
    * O(m²) with double-centering — AutoLearn's published measure).
    */
  private[baselines] def distanceCorrelation(a: Array[Double], b: Array[Double],
                                             m0: Int): Double = {
    val m = math.min(m0, math.min(a.length, b.length))
    if (m < 4) return 0.0
    // row/col means of the distance matrices, computed in two passes
    val ra = Array.fill(m)(0.0); val rb = Array.fill(m)(0.0)
    var ga = 0.0; var gb = 0.0
    var i = 0
    while (i < m) {
      var j = 0
      var sa = 0.0; var sb = 0.0
      while (j < m) {
        sa += math.abs(a(i) - a(j)); sb += math.abs(b(i) - b(j)); j += 1
      }
      ra(i) = sa / m; rb(i) = sb / m; ga += sa; gb += sb
      i += 1
    }
    ga /= (m.toLong * m); gb /= (m.toLong * m)
    var dcov = 0.0; var va = 0.0; var vb = 0.0
    i = 0
    while (i < m) {
      var j = 0
      while (j < m) {
        val ca = math.abs(a(i) - a(j)) - ra(i) - ra(j) + ga
        val cb = math.abs(b(i) - b(j)) - rb(i) - rb(j) + gb
        dcov += ca * cb; va += ca * ca; vb += cb * cb
        j += 1
      }
      i += 1
    }
    if (va <= 0.0 || vb <= 0.0) 0.0
    else math.sqrt(math.abs(dcov) / math.sqrt(va * vb))
  }

  private def pearson(a: Array[Double], b: Array[Double]): Double = {
    val n = a.length
    val ma = a.sum / n; val mb = b.sum / n
    var c = 0.0; var va = 0.0; var vb = 0.0
    var i = 0
    while (i < n) {
      c += (a(i) - ma) * (b(i) - mb)
      va += (a(i) - ma) * (a(i) - ma)
      vb += (b(i) - mb) * (b(i) - mb)
      i += 1
    }
    if (va == 0.0 || vb == 0.0) 0.0 else c / math.sqrt(va * vb)
  }

  /** OLS fit of y ~ x, returning predictions. */
  private def linearPredict(x: Array[Double], y: Array[Double]): Array[Double] = {
    val n = x.length
    val mx = x.sum / n; val my = y.sum / n
    var sxy = 0.0; var sxx = 0.0
    var i = 0
    while (i < n) { sxy += (x(i) - mx) * (y(i) - my); sxx += (x(i) - mx) * (x(i) - mx); i += 1 }
    val slope = if (sxx == 0.0) 0.0 else sxy / sxx
    Array.tabulate(n)(r => my + slope * (x(r) - mx))
  }

  /** Non-linear regression via binned means of y over x quantile bins. */
  private def binnedPredict(x: Array[Double], y: Array[Double], bins: Int): Array[Double] = {
    val n = x.length
    val sorted = x.sorted
    def binOf(v: Double): Int = {
      var b = 1
      while (b < bins && v > sorted(math.min(n - 1, n * b / bins))) b += 1
      b - 1
    }
    val sums = Array.fill(bins)(0.0); val counts = Array.fill(bins)(0)
    var i = 0
    while (i < n) { val b = binOf(x(i)); sums(b) += y(i); counts(b) += 1; i += 1 }
    val my = y.sum / n
    Array.tabulate(n) { r =>
      val b = binOf(x(r))
      if (counts(b) == 0) my else sums(b) / counts(b)
    }
  }
}
