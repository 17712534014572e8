package repro.core.automl

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}

/** The 5 cleaning operators, oracle-checked where SQL-expressible. */
class CleaningOpsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    (Some(1.0), Some(10.0), Some("a")),
    (Some(2.0), None, Some("b")),
    (None, Some(30.0), Some("a")),
    (Some(4.0), Some(40.0), None),
    (Some(5.0), None, Some("a")),
  ).toDF("x", "y", "cat")
  private val cols = Seq("x", "y", "cat")

  test("fillna: zeros and 'missing' constants (oracle)") {
    val got = CleaningOps.fillna(df, cols)
    Oracle.assertEquivalent(got,
      """SELECT coalesce(CAST(x AS DOUBLE), 0.0) AS x,
        |       coalesce(CAST(y AS DOUBLE), 0.0) AS y,
        |       coalesce(cat, 'missing') AS cat FROM t""".stripMargin,
      "t" -> df)
  }
  test("simpleImputer: mean for numerics, mode for strings (oracle)") {
    val got = CleaningOps.simpleImputer(df, cols)
    Oracle.assertEquivalent(got,
      """SELECT coalesce(CAST(x AS DOUBLE), (SELECT avg(CAST(x AS DOUBLE)) FROM t)) AS x,
        |       coalesce(CAST(y AS DOUBLE), (SELECT avg(CAST(y AS DOUBLE)) FROM t)) AS y,
        |       coalesce(cat, 'a') AS cat FROM t""".stripMargin,
      "t" -> df)
  }
  test("simpleImputer: a tied string mode fills the lowest value (oracle)") {
    val tied = Seq(Some("b"), Some("a"), None, Some("b"), Some("a")).toDF("cat")
    Oracle.assertEquivalent(CleaningOps.simpleImputer(tied, Seq("cat")),
      """SELECT coalesce(cat, (SELECT cat FROM t WHERE cat IS NOT NULL
        |  GROUP BY cat ORDER BY count(*) DESC, cat LIMIT 1)) AS cat FROM t""".stripMargin,
      "t" -> tied)
  }
  test("simpleImputer: all-null columns fill 0.0 and 'missing' (oracle)") {
    val empty = Seq((Some(1.0), Option.empty[Double], Option.empty[String]),
                    (None, None, None)).toDF("x", "n", "s")
    Oracle.assertEquivalent(CleaningOps.simpleImputer(empty, Seq("x", "n", "s")),
      """SELECT coalesce(CAST(x AS DOUBLE), 1.0) AS x,
        |       coalesce(CAST(n AS DOUBLE), coalesce((SELECT avg(CAST(n AS DOUBLE)) FROM t), 0.0)) AS n,
        |       coalesce(s, 'missing') AS s FROM t""".stripMargin,
      "t" -> empty)
  }
  test("byte and decimal feature columns are numeric to every op") {
    val typed = Seq((Some(1), Some(1.5)), (None, Some(2.25)), (Some(3), None),
                    (Some(4), Some(4.0)), (Some(5), Some(5.75))).toDF("b", "d")
      .select(col("b").cast("byte").as("b"), col("d").cast("decimal(10,2)").as("d"))
    CleaningOps.All.foreach { op =>
      val out = CleaningOps(op, typed, Seq("b", "d"))
      assert(out.filter(col("b").isNull || col("d").isNull).isEmpty, s"$op left a null")
    }
    val filled = CleaningOps.fillna(typed, Seq("b", "d"))
      .select(col("b").cast("double"), col("d").cast("double")).as[(Double, Double)].collect()
    assert(filled.toSeq == Seq((1.0, 1.5), (0.0, 2.25), (3.0, 0.0), (4.0, 4.0), (5.0, 5.75)))
  }
  test("simpleImputer reads all its statistics in one aggregate") {
    val wide = Seq(("a", "b", "c", 1.0), ("a", null, "d", 2.0), (null, "b", "d", 3.0))
      .toDF("s1", "s2", "s3", "x")
    def jobs(cols: Seq[String]) =
      sparkJobsOf(CleaningOps.simpleImputer(wide, cols).collect())
    val one = jobs(Seq("s1", "x"))
    assert(one == jobs(Seq("s1", "s2", "s3", "x")), s"$one jobs with one string column")
  }
  test("interpolate: missing cell becomes neighbour average") {
    val got = CleaningOps.interpolate(df, cols).select("x").as[Double].collect()
    assert(got(2) == 3.0) // between 2.0 and 4.0
  }
  test("interpolate: edges fall back one-sided") {
    val edge = Seq(Option.empty[Double], Some(2.0), Some(4.0), None)
      .toDF("x")
    val got = CleaningOps.interpolate(edge, Seq("x")).as[Double].collect()
    assert(got(0) == 2.0) // first: next non-null
    assert(got(3) == 4.0) // last: prev non-null
  }
  test("interpolate: leading, trailing, isolated and all-null runs (oracle)") {
    val gaps = Seq(
      (0, None, Some(5.0), Option.empty[Double]),
      (1, None, None, None),
      (2, Some(1.0), None, None),
      (3, None, Some(2.0), None),
      (4, Some(3.0), None, None),
      (5, Some(4.0), Some(8.0), None),
      (6, None, Some(1.0), None),
      (7, None, None, None),
    ).toDF("i", "x", "z", "e")
    // the nearest non-null value before and after each row, their mean
    // where both exist; an all-null column has mean 0
    def filled(c: String) =
      s"""coalesce(a.$c,
         |  ((SELECT arg_max(b.$c, b.i) FROM t2 b WHERE b.i < a.i AND b.$c IS NOT NULL) +
         |   (SELECT arg_min(b.$c, b.i) FROM t2 b WHERE b.i > a.i AND b.$c IS NOT NULL)) / 2.0,
         |  (SELECT arg_max(b.$c, b.i) FROM t2 b WHERE b.i < a.i AND b.$c IS NOT NULL),
         |  (SELECT arg_min(b.$c, b.i) FROM t2 b WHERE b.i > a.i AND b.$c IS NOT NULL),
         |  0.0) AS $c""".stripMargin
    Oracle.assertEquivalent(CleaningOps.interpolate(gaps, Seq("x", "z", "e")),
      s"""WITH t2 AS (SELECT CAST(i AS INTEGER) AS i, CAST(x AS DOUBLE) AS x,
         |                   CAST(z AS DOUBLE) AS z, CAST(e AS DOUBLE) AS e FROM t)
         |SELECT a.i AS i, ${Seq("x", "z", "e").map(filled).mkString(",\n")}
         |FROM t2 a""".stripMargin,
      "t" -> gaps)
  }
  test("interpolate keeps the row order") {
    val rows = (0 until 200).map(i => (i, if (i % 7 == 3) None else Some(i.toDouble)))
    val got = CleaningOps.interpolate(rows.toDF("i", "x"), Seq("x")).as[(Int, Double)].collect()
    assert(got.map(_._1).toSeq == (0 until 200))
  }
  test("all operators remove every null") {
    CleaningOps.All.foreach { op =>
      val cleaned = CleaningOps(op, df, cols)
      val nulls = cols.map(c => cleaned.filter(col(c).isNull).count()).sum
      assert(nulls == 0, s"$op left $nulls nulls")
    }
  }
  test("knnImputer fills from nearest complete rows") {
    // two tight clusters; the missing y must come from its own cluster
    val clustered = Seq(
      (1.0, Some(100.0)), (1.1, Some(101.0)), (0.9, Some(99.0)), (1.05, None),
      (10.0, Some(500.0)), (10.1, Some(501.0)), (9.9, Some(499.0)),
    ).toDF("x", "y")
    val got = CleaningOps.knnImputer(clustered, Seq("x", "y"), k = 3)
      .filter($"x" === 1.05).select("y").as[Double].collect().head
    assert(got > 95 && got < 105, s"imputed $got should be near cluster 1")
  }
  test("iterativeImputer reconstructs a linear relationship") {
    val rng = new scala.util.Random(7)
    val rows = (1 to 300).map { i =>
      val a = rng.nextGaussian(); val b = rng.nextGaussian()
      val y = 2.0 * a - b + rng.nextGaussian() * 0.01
      (a, b, if (i % 5 == 0) None else Some(y))
    }
    val d = spark.createDataFrame(rows).toDF("a", "b", "y")
    val got = CleaningOps.iterativeImputer(d, Seq("a", "b", "y"))
    // check imputations track 2a - b
    val errs = got.filter($"y".isNotNull)
      .select(abs($"y" - (lit(2.0) * $"a" - $"b"))).as[Double].collect()
    val meanErr = errs.sum / errs.length
    assert(meanErr < 0.5, s"mean reconstruction error $meanErr")
  }
  test("iterativeImputer without numeric nulls equals simpleImputer") {
    val complete = Seq((1.0, 2.0, Some("a")), (2.0, 1.0, None), (3.0, 5.0, Some("a")))
      .toDF("a", "b", "cat")
    val cols = Seq("a", "b", "cat")
    assert(CleaningOps.iterativeImputer(complete, cols).collect().toSeq ==
           CleaningOps.simpleImputer(complete, cols).collect().toSeq)
  }
  test("iterativeImputer beats mean imputation on correlated data") {
    val rng = new scala.util.Random(8)
    val truth = (1 to 400).map { _ =>
      val a = rng.nextGaussian(); val b = rng.nextGaussian()
      (a, b, 2.0 * a - b + rng.nextGaussian() * 0.05)
    }
    val withNulls = truth.zipWithIndex.map { case ((a, b, y), i) =>
      (a, b, if (i % 4 == 0) None else Some(y), y)
    }
    val d = spark.createDataFrame(withNulls).toDF("a", "b", "y", "truth")
    def err(cleaned: org.apache.spark.sql.DataFrame): Double = {
      val es = cleaned.select(abs($"y" - $"truth")).as[Double].collect()
      es.sum / es.length
    }
    val iterErr = err(CleaningOps.iterativeImputer(d, Seq("a", "b", "y")))
    val meanErr = err(CleaningOps.simpleImputer(d, Seq("a", "b", "y")))
    assert(iterErr < meanErr, s"iterative $iterErr vs mean $meanErr")
  }
  test("unknown operation is rejected") {
    intercept[IllegalArgumentException] { CleaningOps("Nope", df, cols) }
  }
  test("solveInPlace solves a 3x3 system and detects singularity") {
    val a = Array(Array(2.0, 0.0, 0.0), Array(0.0, 3.0, 0.0), Array(0.0, 0.0, 4.0))
    val x = CleaningOps.solveInPlace(a, Array(2.0, 6.0, 12.0)).get
    assert(x.toSeq == Seq(1.0, 2.0, 3.0))
    val singular = Array(Array(1.0, 1.0), Array(1.0, 1.0))
    assert(CleaningOps.solveInPlace(singular, Array(1.0, 2.0)).isEmpty)
  }
}
