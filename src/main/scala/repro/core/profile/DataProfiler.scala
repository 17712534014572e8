package repro.core.profile

import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Cast, SpecificInternalRow, XxHash64Function}
import org.apache.spark.sql.catalyst.util.HyperLogLogPlusPlusHelper
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.{LongType, StringType}
import org.apache.spark.unsafe.types.UTF8String

import repro.core.embed.ColrModel
import repro.substrate.text.WordEmbedding

/** Scalable data profiling (Alg. 2): one Spark scan, then a per-column
  * kernel on the driver.
  *
  * A data lake is represented as one *cells* DataFrame with schema
  * `(dataset, table, column, row, value)`; the column is the unit of
  * profiling, as in the paper's PySpark profiler. Spark evaluates a
  * narrow projection of the cells and the result is collected once. One
  * pass over it keeps, per column, the exact total and non-null counts,
  * a HyperLogLog++ sketch of the non-null values (Heule, Nelson & Hahn,
  * EDBT 2013: the sketch and relative SD of Spark's
  * `approx_count_distinct`, so the distinct count is Spark's) and, in
  * row order, the non-null values of a deterministic ~`samplePct`% row
  * sample (never fewer than `minSample` rows). The columns are then
  * profiled in parallel (type inference → statistics → CoLR + label
  * embeddings).
  */
object DataProfiler {

  /** One cell of a lake table; `row` is the row ordinal inside the table. */
  case class Cell(dataset: String, table: String, column: String, row: Long, value: String)

  /** Relative SD of the distinct-count sketch: `approx_count_distinct`'s default. */
  val DistinctRsd = 0.05

  /** The paper's sample: 10% of a column's rows, never fewer than 1000. */
  val SamplePct = 10
  val MinSample = 1000

  /** The seed of Spark's `xxhash64`. */
  private val XxHashSeed = 42L

  private val hll = new HyperLogLogPlusPlusHelper(DistinctRsd)

  /** What one column's cells leave after the scan: exact counts, the
    * distinct-count sketch and the in-sample non-null values.
    *
    * The sample gate is deterministic, a hash of (table, column, row), so
    * the DuckDB oracle sees identical profiles: a row is in the sample
    * when `pmod(xxhash64(table, column, row), 100) < samplePct` or
    * `row < minSample`. It is Spark's `xxhash64`, folded here over the
    * column's two names once and over each row's ordinal per cell.
    */
  private[profile] final class ColumnScan(val dataset: String, val table: String,
                                          val column: String, samplePct: Int, minSample: Int) {
    var total   = 0L
    var nonNull = 0L
    private val sketch     = new SpecificInternalRow(Seq.fill(hll.numWords)(LongType))
    private val sampleRows = mutable.ArrayBuffer.empty[Long]
    private val sampleVals = mutable.ArrayBuffer.empty[String]
    private var inRowOrder = true
    private val gateSeed   = Seq(table, column).foldLeft(XxHashSeed) { (h, name) =>
      XxHash64Function.hash(UTF8String.fromString(name), StringType, h)
    }
    (0 until hll.numWords).foreach(sketch.setLong(_, 0L))

    private def inSample(row: Long): Boolean =
      Math.floorMod(XxHash64Function.hash(row, LongType, gateSeed), 100L) < samplePct ||
        row < minSample

    /** Spark's bytes go to the sketch as they are; only in-sample values become Strings. */
    def add(row: Long, value: UTF8String): Unit = {
      total += 1
      if (value != null) {
        nonNull += 1
        hll.update(sketch, 0, value, StringType)
        if (inSample(row)) {
          if (sampleRows.nonEmpty && row < sampleRows.last) inRowOrder = false
          sampleRows += row
          sampleVals += value.toString
        }
      }
    }

    /** The in-sample non-null values in row order: the scan's order,
      * unless the cells arrived out of row order.
      */
    def sample: Seq[String] =
      if (inRowOrder) sampleVals.toSeq
      else sampleRows.indices.sortBy(sampleRows).map(sampleVals)

    def profile: ColumnProfile =
      profileGroup(dataset, table, column, total, nonNull, hll.query(sketch, 0), sample)
  }

  /** Turn a regular DataFrame into profiler cells. Every column is cast
    * to string; `row` is a per-table ordinal used for deterministic
    * sampling. No program path profiles through it: it is the reference
    * that [[profileTable]] is tested against, in order and bit for bit.
    */
  def cellsOf(spark: SparkSession, datasetName: String, tableName: String,
              df: DataFrame): DataFrame = {
    val withRow = df.withColumn("__row", monotonically_increasing_id())
    val stacked = df.columns.map { c =>
      struct(lit(c).as("column"), col(s"`$c`").cast("string").as("value"))
    }
    withRow
      .select(col("__row").as("row"), explode(array(stacked.toIndexedSeq: _*)).as("cell"))
      .select(
        lit(datasetName).as("dataset"),
        lit(tableName).as("table"),
        col("cell.column").as("column"),
        col("row"),
        col("cell.value").as("value"),
      )
  }

  /** One Spark job over the frame's plan, kept as Spark's internal rows: no `Row` decoding. */
  private def collectInternal(df: DataFrame, name: String): Array[InternalRow] =
    SQLExecution.withNewExecutionId(df.queryExecution, Some(name))(
      df.queryExecution.executedPlan.executeCollect())

  /** Scan a cells DataFrame in one Spark job: one [[ColumnScan]] per column, in first-seen order. */
  private[profile] def scan(cells: DataFrame, samplePct: Int, minSample: Int): Seq[ColumnScan] = {
    val columns = mutable.LinkedHashMap.empty[(UTF8String, UTF8String, UTF8String), ColumnScan]
    collectInternal(cells.select("dataset", "table", "column", "row", "value"), "profile").foreach { r =>
      val key = (r.getUTF8String(0), r.getUTF8String(1), r.getUTF8String(2))
      columns.getOrElse(key, {
        val (d, t, c) = (key._1.clone(), key._2.clone(), key._3.clone())
        val s = new ColumnScan(d.toString, t.toString, c.toString, samplePct, minSample)
        columns((d, t, c)) = s
        s
      }).add(r.getLong(3), r.getUTF8String(4))
    }
    columns.values.toSeq
  }

  /** Profile a cells DataFrame into one [[ColumnProfile]] per column, in
    * order of first appearance; Spark runs one job.
    *
    * @param samplePct  percentage of rows sampled per column (paper: 10)
    * @param minSample  minimum sample size (paper: 1000)
    */
  def profile(cells: DataFrame, samplePct: Int = SamplePct, minSample: Int = MinSample): Seq[ColumnProfile] =
    scan(cells, samplePct, minSample).par.map(_.profile).seq

  // The benchmark's traced lake preprocessing and its self-test call
  // this; every other caller profiles with `profile`.

  /** [[profile]] of the cells, as a local Dataset. */
  def profileCells(spark: SparkSession, cells: DataFrame): Dataset[ColumnProfile] = {
    import spark.implicits._
    spark.createDataset(profile(cells))
  }

  /** Profile one column from its counts and its in-sample non-null
    * values (Alg. 2's per-column step).
    */
  private[profile] def profileGroup(dataset: String, table: String, column: String,
                                    total: Long, nonNull: Long, distinct: Long,
                                    sample: Seq[String]): ColumnProfile = {
    val fgt = TypeInference.infer(sample)
    val (mean, std, mn, mx) =
      if (FineGrainedType.isNumeric(fgt)) ColumnStats.numericStats(sample)
      else (0.0, 0.0, 0.0, 0.0)
    ColumnProfile(
      datasetName = dataset,
      tableName = table,
      columnName = column,
      fgType = fgt,
      totalCount = total,
      nonNullCount = nonNull,
      distinctCount = distinct,
      trueRatio = if (fgt == FineGrainedType.Boolean) ColumnStats.trueRatio(sample) else 0.0,
      mean = mean, std = std, minVal = mn, maxVal = mx,
      embedding = ColrModel.embed(fgt, sample),
      labelEmbedding = WordEmbedding.labelEmbedding(column),
    )
  }

  /** Profile a single in-memory DataFrame: the profiles of [[cellsOf]]
    * the frame, in frame column order. Both automation paths profile
    * this way, the training frames of the KG and the unseen frame at
    * inference (§4.1: "the GNN model takes the unseen dataset in the
    * form of a DataFrame and calculates the CoLR embedding per column").
    * Spark runs one job, which reads each row once with its ordinal; the
    * values are cast to string on the driver by Spark's own `Cast`.
    */
  def profileTable(spark: SparkSession, datasetName: String, tableName: String,
                   df: DataFrame): Seq[ColumnProfile] = {
    val rows = collectInternal(
      df.select(monotonically_increasing_id() +: df.columns.map(c => col(s"`$c`")): _*), "profileTable")
    if (rows.isEmpty) return Nil
    val zone     = Some(spark.conf.get(SQLConf.SESSION_LOCAL_TIMEZONE.key))
    val asString = df.schema.fields.zipWithIndex.map { case (f, i) =>
      Cast(BoundReference(i + 1, f.dataType, nullable = true), StringType, zone)
    }
    val scans = df.columns.map(new ColumnScan(datasetName, tableName, _, SamplePct, MinSample))
    rows.foreach { r =>
      val row = r.getLong(0)
      scans.indices.foreach(i => scans(i).add(row, asString(i).eval(r).asInstanceOf[UTF8String]))
    }
    scans.toSeq.par.map(_.profile).seq
  }
}
