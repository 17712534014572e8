package repro.core.automl

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}

/** Scalers and unary transforms, oracle-checked where SQL-expressible. */
class TransformOpsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(1.0, 2.0, 3.0, 4.0, 10.0).toDF("x")

  test("StandardScaler matches SQL (oracle)") {
    val got = TransformOps.scale(df, Seq("x"), TransformOps.StandardScaler)
    Oracle.assertEquivalent(got,
      """SELECT (CAST(x AS DOUBLE) - (SELECT avg(CAST(x AS DOUBLE)) FROM t)) /
        |       (SELECT stddev_pop(CAST(x AS DOUBLE)) FROM t) AS x FROM t""".stripMargin,
      "t" -> df)
  }
  test("MinMaxScaler matches SQL (oracle)") {
    val got = TransformOps.scale(df, Seq("x"), TransformOps.MinMaxScaler)
    Oracle.assertEquivalent(got,
      """SELECT (CAST(x AS DOUBLE) - (SELECT min(CAST(x AS DOUBLE)) FROM t)) /
        |       ((SELECT max(CAST(x AS DOUBLE)) FROM t) - (SELECT min(CAST(x AS DOUBLE)) FROM t))
        |       AS x FROM t""".stripMargin,
      "t" -> df)
  }
  test("StandardScaler: mean 0, std 1") {
    val vals = TransformOps.scale(df, Seq("x"), TransformOps.StandardScaler)
      .as[Double].collect()
    assert(math.abs(vals.sum / vals.length) < 1e-9)
    val varr = vals.map(v => v * v).sum / vals.length
    assert(math.abs(varr - 1.0) < 1e-9)
  }
  test("MinMaxScaler: range [0, 1]") {
    val vals = TransformOps.scale(df, Seq("x"), TransformOps.MinMaxScaler)
      .as[Double].collect()
    assert(vals.min == 0.0 && vals.max == 1.0)
  }
  test("RobustScaler: median maps to ~0") {
    val vals = TransformOps.scale(df, Seq("x"), TransformOps.RobustScaler)
      .as[Double].collect().sorted
    assert(math.abs(vals(2)) < 1e-9)
  }
  test("RobustScaler shrinks outlier influence vs StandardScaler") {
    val skewed = (Seq.fill(50)(1.0) ++ Seq.fill(50)(2.0) ++ Seq(1000.0)).toDF("x")
    val robust = TransformOps.scale(skewed, Seq("x"), TransformOps.RobustScaler)
      .as[Double].collect()
    // the bulk of robust-scaled values stays within a few IQRs
    assert(robust.count(v => math.abs(v) <= 2.0) >= 100)
  }
  test("NoScaler is identity") {
    assert(TransformOps.scale(df, Seq("x"), TransformOps.NoScaler)
      .as[Double].collect().toSeq == Seq(1.0, 2.0, 3.0, 4.0, 10.0))
  }
  test("constant column survives every scaler (no divide-by-zero)") {
    val const = Seq(5.0, 5.0, 5.0).toDF("x")
    TransformOps.Scalers.foreach { s =>
      val vals = TransformOps.scale(const, Seq("x"), s).as[Double].collect()
      assert(vals.forall(v => !v.isNaN && !v.isInfinite), s)
    }
  }
  test("every scaler keeps an all-null column null and accepts an empty frame") {
    val nulls = Seq((1.0, Option.empty[Double]), (2.0, None)).toDF("x", "n")
    TransformOps.Scalers.foreach { s =>
      val got = TransformOps.scale(nulls, Seq("x", "n"), s).select("n").as[Option[Double]].collect()
      assert(got.toSeq == Seq(None, None), s)
      assert(TransformOps.scale(nulls.limit(0), Seq("x", "n"), s).collect().isEmpty, s)
    }
  }
  test("log transform matches log1p on non-negative data (oracle)") {
    val got = TransformOps.unary(df, Seq("x" -> TransformOps.Log))
    Oracle.assertEquivalent(got,
      "SELECT ln(1 + CAST(x AS DOUBLE)) AS x FROM t", "t" -> df)
  }
  test("log transform shifts negative data first") {
    val neg = Seq(-5.0, 0.0, 5.0).toDF("x")
    val vals = TransformOps.unary(neg, Seq("x" -> TransformOps.Log)).as[Double].collect()
    assert(vals.forall(v => !v.isNaN))
    assert(vals(0) == 0.0) // log1p(-5 + 5)
  }
  test("sqrt transform matches SQL on shifted data (oracle)") {
    val got = TransformOps.unary(df, Seq("x" -> TransformOps.Sqrt))
    Oracle.assertEquivalent(got,
      "SELECT sqrt(CAST(x AS DOUBLE)) AS x FROM t", "t" -> df)
  }
  test("multi-column unary equals each column's op alone (oracle)") {
    val mixed = Seq((1.0, -4.0, 7.0), (3.0, 0.0, 8.0), (9.0, 5.0, 9.0)).toDF("a", "b", "c")
    val ops = Seq("a" -> TransformOps.Log, "b" -> TransformOps.Sqrt, "c" -> TransformOps.None)
    val got = TransformOps.unary(mixed, ops)
    Oracle.assertEquivalent(got,
      """SELECT ln(1 + CAST(a AS DOUBLE)) AS a,
        |       sqrt(CAST(b AS DOUBLE) + 4.0) AS b, CAST(c AS DOUBLE) AS c FROM t""".stripMargin,
      "t" -> mixed)
    val alone = ops.foldLeft(mixed) { (d, op) => TransformOps.unary(d, Seq(op)) }
    assert(got.collect().toSeq == alone.collect().toSeq)
  }
  test("unary 'none' is identity; unknown op rejected") {
    assert(TransformOps.unary(df, Seq("x" -> TransformOps.None)).as[Double].collect().toSeq ==
      Seq(1.0, 2.0, 3.0, 4.0, 10.0))
    intercept[IllegalArgumentException] { TransformOps.unary(df, Seq("x" -> "cube")) }
    intercept[IllegalArgumentException] { TransformOps.scale(df, Seq("x"), "zscale") }
  }
  test("log transform linearizes a lognormal feature") {
    val rng  = new scala.util.Random(3)
    val logn = (1 to 500).map(_ => math.exp(rng.nextGaussian() * 1.5)).toDF("x")
    val transformed = TransformOps.unary(logn, Seq("x" -> TransformOps.Log)).as[Double].collect()
    // skewness should drop dramatically after log
    def skew(v: Array[Double]): Double = {
      val m = v.sum / v.length
      val s = math.sqrt(v.map(x => (x - m) * (x - m)).sum / v.length)
      v.map(x => math.pow((x - m) / s, 3)).sum / v.length
    }
    assert(math.abs(skew(transformed)) <
           math.abs(skew(logn.as[Double].collect())))
  }
}
