package repro.core.profile

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.{Oracle, SparkSpec}
import repro.core.embed.{ColrModel, TableEmbedding}
import repro.data.{LakeBench, MlDatasets}

/** Data profiling (Alg. 2): one Spark scan and a driver-side kernel,
  * checked against DuckDB and against Spark's own aggregates.
  */
class DataProfilerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    (Some(25), Some("Canada"), Some("great product really"), Some(true), Some("2020-01-05")),
    (Some(37), Some("France"), Some("bad quality terrible"), Some(false), Some("2020-03-05")),
    (None, Some("Japan"), Some("love it works perfectly"), Some(true), Some("2021-07-15")),
    (Some(41), None, Some("would not recommend this"), Some(true), None),
    (Some(29), Some("Brazil"), None, Some(false), Some("2019-11-30")),
  ).toDF("age", "country", "review", "active", "signup_date")
    .select($"age", $"country", $"review", $"active", $"signup_date")

  private lazy val profiles =
    DataProfiler.profileTable(spark, "shop", "customers", df)

  test("one profile per column") {
    assert(profiles.map(_.columnName).sorted ==
      Seq("active", "age", "country", "review", "signup_date"))
  }
  test("membership metadata is set") {
    assert(profiles.forall(_.datasetName == "shop"))
    assert(profiles.forall(_.tableName == "customers"))
    assert(profiles.head.tableId == "shop/customers")
    assert(profiles.head.columnId.startsWith("shop/customers/"))
  }
  test("fine-grained types are inferred per column") {
    val t = profiles.map(p => p.columnName -> p.fgType).toMap
    assert(t("age") == FineGrainedType.Int)
    assert(t("country") == FineGrainedType.NamedEntity)
    assert(t("review") == FineGrainedType.NaturalLanguage)
    assert(t("active") == FineGrainedType.Boolean)
    assert(t("signup_date") == FineGrainedType.Date)
  }
  test("total and null counts are exact (oracle)") {
    val got = spark.createDataFrame(
      profiles.map(p => (p.columnName, p.totalCount, p.nullCount)))
      .toDF("col", "total", "nulls")
    Oracle.assertEquivalent(got,
      """SELECT 'age' AS col, count(*) AS total, count(*) - count(age) AS nulls FROM customers
        |UNION ALL SELECT 'country', count(*), count(*) - count(country) FROM customers
        |UNION ALL SELECT 'review', count(*), count(*) - count(review) FROM customers
        |UNION ALL SELECT 'active', count(*), count(*) - count(active) FROM customers
        |UNION ALL SELECT 'signup_date', count(*), count(*) - count(signup_date) FROM customers
        |""".stripMargin,
      "customers" -> df)
  }
  test("numeric statistics match the sample") {
    val age = profiles.find(_.columnName == "age").get
    assert(math.abs(age.mean - 33.0) < 1e-9) // (25+37+41+29)/4
    assert(age.minVal == 25.0 && age.maxVal == 41.0)
  }
  test("boolean true-ratio") {
    val act = profiles.find(_.columnName == "active").get
    assert(math.abs(act.trueRatio - 0.6) < 1e-9)
  }
  test("distinct counts are approximately right") {
    val c = profiles.find(_.columnName == "country").get
    assert(c.distinctCount >= 3 && c.distinctCount <= 5)
  }
  test("embeddings have the right dimensionality") {
    assert(profiles.forall(_.embedding.length == ColrModel.Dim))
    assert(profiles.forall(_.labelEmbedding.length == 50))
  }
  test("profiling is deterministic") {
    val again = DataProfiler.profileTable(spark, "shop", "customers", df)
    profiles.zip(again).foreach { case (a, b) =>
      assert(a.columnName == b.columnName)
      assert(a.fgType == b.fgType)
      assert(a.embedding.sameElements(b.embedding))
    }
  }
  test("cellsOf produces one cell per (row, column)") {
    val cells = DataProfiler.cellsOf(spark, "shop", "customers", df)
    assert(cells.count() == 25)
    assert(cells.filter(col("value").isNull).count() == 4)
  }
  test("profileCells scales over multiple tables in one pass") {
    val cells = DataProfiler.cellsOf(spark, "shop", "customers", df)
      .union(DataProfiler.cellsOf(spark, "shop", "orders",
        Seq((1, 9.99), (2, 19.99)).toDF("order_id", "total")))
    val ps = DataProfiler.profileCells(spark, cells).collect().toSeq
    assert(ps.map(p => s"${p.tableName}.${p.columnName}") == Seq(
      "customers.age", "customers.country", "customers.review", "customers.active",
      "customers.signup_date", "orders.order_id", "orders.total"))
  }
  /** One column of each type the driver `Cast` renders, every 7th
    * value null, over 3 partitions; the names do not sort in frame order.
    */
  private lazy val typed = {
    val id = col("id")
    def someNull(c: Column) = when(id % 7 =!= 3, c)
    spark.range(0, 120, 1, 3).select(
      someNull((id - 60).cast(ByteType)).as("b"),
      someNull((id * 311 - 9000).cast(ShortType)).as("s"),
      someNull((id * 7777777 - 400000000).cast(IntegerType)).as("i"),
      someNull(id * 1234567890123L - 99999999999999L).as("l"),
      someNull((id / 7).cast(FloatType)).as("f"),
      someNull(pow(lit(10.0), id / 4 - 15) * 1.2345).as("d"),
      someNull((id / 3 - 20).cast(DecimalType(10, 2))).as("dec"),
      someNull(id % 3 === 0).as("bool"),
      someNull(concat(lit("v "), (id % 5).cast(StringType))).as("str"),
      someNull(date_add(lit(java.sql.Date.valueOf("2019-12-30")), (id * 13).cast(IntegerType))).as("date"),
      someNull(timestamp_seconds(id * 86461 + 1577836800L)).as("ts"),
    )
  }

  test("profileTable equals the profiles of the frame's cells") {
    val horse = MlDatasets.cleaningBenchmark(1)
    assert(typed.rdd.getNumPartitions == 3)
    val frames = Seq("customers" -> df, "typed" -> typed,
                     horse.name -> horse.generate(spark).repartition(3).cache())
    frames.foreach { case (name, frame) =>
      val got  = DataProfiler.profileTable(spark, "shop", name, frame)
      val want = DataProfiler.profile(DataProfiler.cellsOf(spark, "shop", name, frame))
      assert(got.map(_.columnName) == frame.columns.toSeq && got.exists(_.nullCount > 0))
      assert(got.size == want.size)
      got.zip(want).foreach { case (a, b) => assertSameProfile(a, b) }
    }
    frames.last._2.unpersist()
  }
  test("profiling a table runs one Spark job") {
    // a cached frame, as the automation path profiles one; a scan of the
    // bare local rows runs no Spark job at all
    val cached = df.cache()
    cached.count()
    val jobs = sparkJobsOf(DataProfiler.profileTable(spark, "shop", "customers", cached))
    cached.unpersist()
    assert(jobs == 1)
  }
  test("a zero-row frame gives no profiles") {
    assert(DataProfiler.profileTable(spark, "shop", "customers", df.filter(lit(false))).isEmpty)
  }
  test("an all-null column is a string column with a zero CoLR vector") {
    val nulls = Seq[(Int, Option[String])]((1, None), (2, None), (3, None)).toDF("id", "note")
    val note  = DataProfiler.profileTable(spark, "shop", "notes", nulls).find(_.columnName == "note").get
    assert(note.fgType == FineGrainedType.Str)
    assert(note.totalCount == 3 && note.nonNullCount == 0 && note.distinctCount == 0)
    assert(note.embedding.length == ColrModel.Dim && note.embedding.forall(_ == 0.0))
  }
  test("table embedding (Eq. 1) concatenates per-type means") {
    val emb = TableEmbedding.fromProfiles(profiles)
    assert(emb.length == TableEmbedding.Dim)
    // the int block is exactly the age column's embedding
    val age = profiles.find(_.columnName == "age").get
    assert(emb.take(ColrModel.Dim).sameElements(age.embedding))
  }
  test("missing-value table embedding aggregates only null-bearing columns") {
    val emb  = TableEmbedding.forMissingValueColumns(profiles)
    val withNulls = profiles.filter(_.nullCount > 0)
    assert(withNulls.nonEmpty)
    val expected = TableEmbedding.fromProfiles(withNulls)
    assert(emb.sameElements(expected))
  }

  // ------------------------------------- reference checks on a generated lake
  private val SamplePct = 10
  private val MinSample = 100

  /** A generated lake's cells with every 11th cell of a column blanked
    * to null, in row order across 7 partitions: tables and columns span
    * partitions.
    */
  private lazy val lakeCells: DataFrame = {
    val lake = LakeBench.generate(
      LakeBench.Spec("prof", nFamilies = 2, partitionsPerFamily = 3, baseRows = 1500,
                     colsMin = 4, colsMax = 6, hard = false, nQuery = 2, seed = 5))
    val cells = lake.cells(spark).as[DataProfiler.Cell].collect().toSeq.map { c =>
      if ((c.row + c.column.length) % 11 == 0) c.copy(value = null) else c
    }
    spark.createDataset(spark.sparkContext.parallelize(cells, 7)).toDF().cache()
  }
  private lazy val lakeProfiles = DataProfiler.profile(lakeCells, SamplePct, MinSample)
  private def key(p: ColumnProfile) = (p.datasetName, p.tableName, p.columnName)

  /** The profiler's sample gate, as a Spark column. */
  private val inSample =
    (pmod(xxhash64(col("table"), col("column"), col("row")), lit(100L)) < lit(SamplePct.toLong)) ||
      (col("row") < lit(MinSample.toLong))

  test("total and non-null counts equal DuckDB's on a multi-partition lake") {
    assert(lakeCells.rdd.getNumPartitions == 7 && lakeCells.filter(col("value").isNull).count() > 0)
    Oracle.assertEquivalent(
      lakeProfiles.map(p => (p.tableName, p.columnName, p.totalCount, p.nonNullCount))
        .toDF("tbl", "col", "total", "non_null"),
      """SELECT tbl, col, count(*) AS total, count(v) AS non_null FROM cells GROUP BY tbl, col""",
      "cells" -> lakeCells.select(col("table").as("tbl"), col("column").as("col"), col("value").as("v")))
  }
  test("distinct counts equal Spark's approx_count_distinct per column") {
    val expected = lakeCells.groupBy("dataset", "table", "column")
      .agg(approx_count_distinct(col("value")).as("d"))
      .as[(String, String, String, Long)].collect()
      .map { case (d, t, c, n) => (d, t, c) -> n }.toMap
    assert(expected.values.exists(_ > 500), "the check needs columns past HLL++'s small range")
    assert(lakeProfiles.map(p => key(p) -> p.distinctCount).toMap == expected)
  }
  test("each sample holds the values Spark's collect_list gates in") {
    val expected = lakeCells.groupBy("dataset", "table", "column")
      .agg(collect_list(when(inSample, col("value"))).as("s"))
      .as[(String, String, String, Seq[String])].collect()
      .map { case (d, t, c, s) => (d, t, c) -> s.sorted }.toMap
    val scans = DataProfiler.scan(lakeCells, SamplePct, MinSample)
    assert(scans.exists(s => s.sample.size < s.nonNull), "the gate must leave values out")
    assert(scans.map(s => (s.dataset, s.table, s.column) -> s.sample.sorted).toMap == expected)
  }

  /** Every field, arrays by element: the profiles are equal bit for bit. */
  private def assertSameProfile(a: ColumnProfile, b: ColumnProfile): Unit = {
    assert(a.copy(embedding = null, labelEmbedding = null) ==
      b.copy(embedding = null, labelEmbedding = null))
    assert(a.embedding.sameElements(b.embedding) && a.labelEmbedding.sameElements(b.labelEmbedding))
  }

  test("a column spanning two partitions is profiled from its values in row order") {
    val (d, t, c) = lakeCells.withColumn("part", spark_partition_id())
      .groupBy("dataset", "table", "column")
      .agg(countDistinct(col("part")).as("parts"))
      .filter(col("parts") === 2)
      .orderBy("dataset", "table", "column")
      .select("dataset", "table", "column").as[(String, String, String)].head()
    val cells = lakeCells.filter(col("table") === t && col("column") === c)
    val inOrder = cells.orderBy("row").select(when(inSample, col("value")))
      .as[String].collect().toSeq.filter(_ != null)
    val got = lakeProfiles.find(p => key(p) == (d, t, c)).get
    assertSameProfile(got, DataProfiler.profileGroup(d, t, c, cells.count(),
      cells.filter(col("value").isNotNull).count(), got.distinctCount, inOrder))
  }
  test("profiles do not depend on the order the cells arrive in") {
    val shuffled = DataProfiler.profile(lakeCells.repartition(5), SamplePct, MinSample)
      .map(p => key(p) -> p).toMap
    assert(shuffled.size == lakeProfiles.size)
    lakeProfiles.foreach(p => assertSameProfile(shuffled(key(p)), p))
  }
}
