package repro.core.automl

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType

/** The 5 cleaning operations the cleaning GNN chooses among (§4.2):
  * Fillna, Interpolate, SimpleImputer, KNNImputer, IterativeImputer —
  * each implemented as a DataFrame → DataFrame transformation over the
  * given feature columns (numeric doubles; string columns are
  * mode/constant-filled where the op defines it).
  *
  * Each op reads every column statistic it needs in one aggregate
  * ([[statistics]]), whose SQL already holds the defaults of an all-null
  * or zero-row column, and rewrites its columns in one projection.
  */
object CleaningOps {

  val Fillna           = "Fillna"
  val Interpolate      = "Interpolate"
  val SimpleImputer    = "SimpleImputer"
  val KnnImputer       = "KNNImputer"
  val IterativeImputer = "IterativeImputer"

  /** All operations, in the GNN's class order. */
  val All: Seq[String] =
    Seq(Fillna, Interpolate, SimpleImputer, KnnImputer, IterativeImputer)

  /** Apply a named cleaning operation. */
  def apply(op: String, df: DataFrame, featureCols: Seq[String]): DataFrame = op match {
    case Fillna           => fillna(df, featureCols)
    case Interpolate      => interpolate(df, featureCols)
    case SimpleImputer    => simpleImputer(df, featureCols)
    case KnnImputer       => knnImputer(df, featureCols)
    case IterativeImputer => iterativeImputer(df, featureCols)
    case other            => throw new IllegalArgumentException(s"unknown cleaning op $other")
  }

  /** The values of the aggregates `aggs` over `df`: one Spark job. */
  private[automl] def statistics(df: DataFrame, aggs: Seq[Column]): Row =
    df.select(aggs: _*).head()

  /** A statistic, 0 where it is null (an all-null or zero-row column). */
  private[automl] def orZero(stat: Column): Column = coalesce(stat, lit(0.0))

  /** A divisor: the statistic, or 1 where it is null or 0. */
  private[automl] def orOne(stat: Column): Column =
    when(orZero(stat) === 0.0, 1.0).otherwise(stat)

  private def split(df: DataFrame, cols: Seq[String]): (Seq[String], Seq[String]) =
    cols.partition(c => df.schema(c).dataType.isInstanceOf[NumericType])

  /** `df.fillna(0)` / `'missing'` — the pandas constant-fill idiom. */
  def fillna(df: DataFrame, cols: Seq[String]): DataFrame = {
    val (num, str) = split(df, cols)
    df.na.fill(0.0, num).na.fill("missing", str)
  }

  /** sklearn SimpleImputer: mean for numeric, most-frequent for strings
    * (the lowest of tied values; `'missing'` for an all-null column).
    */
  def simpleImputer(df: DataFrame, cols: Seq[String]): DataFrame = {
    if (cols.isEmpty) return df
    val (num, str) = split(df, cols)
    val fills = statistics(df, num.map(c => orZero(avg(col(c)))) ++ str.map(c =>
      coalesce(mode(col(c), deterministic = true).cast("string"), lit("missing"))))
    df.na.fill((num ++ str).zip(fills.toSeq).toMap)
  }

  /** pandas `interpolate(method='linear')`: a missing cell becomes the
    * average of the nearest non-null values before and after it in row
    * order (one-sided at the edges, column mean when fully isolated).
    */
  def interpolate(df: DataFrame, cols: Seq[String]): DataFrame = {
    val (num, str) = split(df, cols)
    // Both frames end at the row before the current one, in ascending
    // and in descending row order: Spark grows a frame that starts at the
    // first row incrementally, where it would re-aggregate a frame that
    // ends at the last row for every row.
    val before = Window.orderBy("__rid").rowsBetween(Window.unboundedPreceding, -1)
    val after  = Window.orderBy(col("__rid").desc).rowsBetween(Window.unboundedPreceding, -1)
    val out = df.withColumn("__rid", monotonically_increasing_id()).withColumns(num.map { c =>
      val prev = last(col(c), ignoreNulls = true).over(before)
      val next = last(col(c), ignoreNulls = true).over(after)
      c -> coalesce(col(c), when(prev.isNotNull && next.isNotNull, (prev + next) / 2.0)
        .when(prev.isNotNull, prev)
        .otherwise(next))
    }.toMap)
    // The windows leave the rows in one partition; sorting that partition
    // by row restores the row order, in which the means below are summed.
    // Residual nulls (empty column) + strings → mean/mode via SimpleImputer.
    simpleImputer(out.sortWithinPartitions("__rid").drop("__rid"), num ++ str)
  }

  val MaxAnchors = 128

  /** sklearn KNNImputer (k=5) against a broadcast anchor sample of at
    * most [[MaxAnchors]] complete rows: a missing cell is the mean of that
    * column over the k anchors nearest in standardized euclidean distance
    * on the row's observed features.
    */
  def knnImputer(df: DataFrame, cols: Seq[String], k: Int = 5): DataFrame = {
    val (num, str) = split(df, cols)
    if (num.isEmpty) return simpleImputer(df, cols)

    val stats = statistics(df, num.flatMap(c =>
      Seq(orZero(avg(col(c))), orOne(stddev_pop(col(c))))))
    val mean = num.indices.map(i => stats.getDouble(2 * i)).toArray
    val std  = num.indices.map(i => stats.getDouble(2 * i + 1)).toArray

    val anchors: Array[Array[Double]] = df
      .na.drop(num)
      .limit(MaxAnchors)
      .select(num.map(c => col(c).cast("double")): _*)
      .collect()
      .map(r => num.indices.map(r.getDouble).toArray)

    if (anchors.isEmpty) return simpleImputer(df, cols)

    val fillUdf = udf { (values: Seq[java.lang.Double], target: Int) =>
      val obs = values.toArray
      val dists = anchors.map { a =>
        var s = 0.0; var cnt = 0; var i = 0
        while (i < a.length) {
          if (i != target && obs(i) != null) {
            val d = (obs(i) - a(i)) / std(i); s += d * d; cnt += 1
          }
          i += 1
        }
        if (cnt == 0) Double.MaxValue else math.sqrt(s / cnt)
      }
      val nearest = dists.zipWithIndex.sortBy(_._1).take(k).map(_._2)
      if (nearest.isEmpty) mean(target)
      else nearest.map(i => anchors(i)(target)).sum / nearest.size
    }

    val featArray = array(num.map(c => col(c).cast("double")): _*)
    // sequential: each column's distances read the columns imputed before it
    val out = num.zipWithIndex.foldLeft(df) { case (d, (c, i)) =>
      d.withColumn(c, coalesce(col(c), fillUdf(featArray, lit(i))))
    }
    simpleImputer(out, str) // strings still need a fill
  }

  val Iterations = 2
  val MaxFitRows = 20000
  val Ridge      = 1e-3

  /** sklearn IterativeImputer (round-robin regression): each null column
    * is modelled as a ridge regression on the other (mean-filled)
    * columns, fit on a driver-side sample of at most [[MaxFitRows]] rows
    * and applied as a Catalyst linear-combination expression; repeated
    * for [[Iterations]] rounds.
    */
  def iterativeImputer(df: DataFrame, cols: Seq[String]): DataFrame = {
    val (num, str) = split(df, cols)
    if (num.size < 2) return simpleImputer(df, cols)

    val stats = statistics(df, num.flatMap(c =>
      Seq(orZero(avg(col(c))), count(col(c)) < count(lit(1)))))
    val meanOf   = num.indices.map(i => num(i) -> stats.getDouble(2 * i)).toMap
    val nullCols = num.indices.filter(i => stats.getBoolean(2 * i + 1)).map(num)
    if (nullCols.isEmpty) return simpleImputer(df, cols)

    // sequential: each target's fit and prediction read the targets imputed before it
    var current = df
    (0 until Iterations).foreach { _ =>
      nullCols.foreach { target =>
        val others = num.filterNot(_ == target)
        // fit on rows where the target is observed, others mean-filled
        val fitRows = current.filter(col(target).isNotNull)
          .select((others :+ target).map(c =>
            coalesce(col(c).cast("double"), lit(meanOf(c))).as(c)): _*)
          .limit(MaxFitRows).collect()
        if (fitRows.length >= others.size + 2) {
          val d = others.size
          val xtx = Array.ofDim[Double](d + 1, d + 1)
          val xty = Array.ofDim[Double](d + 1)
          fitRows.foreach { r =>
            val x = Array(1.0) ++ (0 until d).map(r.getDouble)
            val y = r.getDouble(d)
            var i = 0
            while (i < d + 1) {
              var j = 0
              while (j < d + 1) { xtx(i)(j) += x(i) * x(j); j += 1 }
              xty(i) += x(i) * y
              i += 1
            }
          }
          (0 to d).foreach(i => xtx(i)(i) += Ridge * fitRows.length)
          solveInPlace(xtx, xty).foreach { coef =>
            val pred: Column = others.zipWithIndex
              .map { case (c, i) =>
                coalesce(col(c).cast("double"), lit(meanOf(c))) * lit(coef(i + 1))
              }
              .foldLeft(lit(coef(0)): Column)(_ + _)
            current = current.withColumn(target, coalesce(col(target), pred))
          }
        }
      }
    }
    simpleImputer(current, num ++ str) // mop up anything unfit
  }

  /** Gaussian elimination with partial pivoting; None when singular. */
  private[automl] def solveInPlace(a: Array[Array[Double]],
                                   b: Array[Double]): Option[Array[Double]] = {
    val n = b.length
    val m = a.map(_.clone())
    val y = b.clone()
    var i = 0
    while (i < n) {
      var p = i
      var r = i + 1
      while (r < n) { if (math.abs(m(r)(i)) > math.abs(m(p)(i))) p = r; r += 1 }
      if (math.abs(m(p)(i)) < 1e-12) return None
      val tm = m(i); m(i) = m(p); m(p) = tm
      val ty = y(i); y(i) = y(p); y(p) = ty
      r = i + 1
      while (r < n) {
        val f = m(r)(i) / m(i)(i)
        var cIdx = i
        while (cIdx < n) { m(r)(cIdx) -= f * m(i)(cIdx); cIdx += 1 }
        y(r) -= f * y(i)
        r += 1
      }
      i += 1
    }
    val x = Array.ofDim[Double](n)
    i = n - 1
    while (i >= 0) {
      var s = y(i)
      var j = i + 1
      while (j < n) { s -= m(i)(j) * x(j); j += 1 }
      x(i) = s / m(i)(i)
      i -= 1
    }
    Some(x)
  }
}
