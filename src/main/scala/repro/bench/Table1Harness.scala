package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.profile.DataProfiler
import repro.data.{Lake, LakeBench}

/** Table 1 — Data Discovery Benchmarks: per-lake statistics with the
  * column-type breakdown produced by our data profiler.
  */
object Table1Harness {

  /** One column of the paper's Table 1. */
  case class LakeStats(
      name: String,
      sizeMb: Double,
      nTables: Int,
      nQueryTables: Int,
      avgUnionable: Double,
      avgRows: Double,
      totalColumns: Long,
      typeCounts: Map[String, Long],
  )

  /** The four benchmark lakes of §6.1 at container scale. */
  def lakeSpecs: Seq[LakeBench.Spec] = Seq(
    LakeBench.d3lLite, LakeBench.tusLite,
    LakeBench.santosLiteSmall, LakeBench.santosLiteLarge)

  def statsOf(spark: SparkSession, lake: Lake): LakeStats = {
    val byType = DataProfiler.profile(lake.cells(spark))
      .groupBy(_.fgType).map { case (t, ps) => t -> ps.size.toLong }
    LakeStats(
      name = lake.name,
      sizeMb = lake.totalSizeBytes / 1024.0 / 1024.0,
      nTables = lake.tables.size,
      nQueryTables = lake.queryTables.size,
      avgUnionable = lake.avgUnionable,
      avgRows = lake.avgRows,
      totalColumns = byType.values.sum,
      typeCounts = byType,
    )
  }

  def run(spark: SparkSession): Seq[LakeStats] =
    lakeSpecs.map(s => statsOf(spark, LakeBench.generate(s)))

  def format(rows: Seq[LakeStats]): String = {
    val types = repro.core.profile.FineGrainedType.All
    val sb    = new StringBuilder
    val w     = 22
    def line(label: String, f: LakeStats => String): Unit = {
      sb.append(label.padTo(28, ' '))
      rows.foreach(r => sb.append(f(r).reverse.padTo(w, ' ').reverse))
      sb.append('\n')
    }
    line("Statistic", _.name)
    line("Size (MB)", r => f"${r.sizeMb}%.1f")
    line("No. tables", _.nTables.toString)
    line("No. query tables", _.nQueryTables.toString)
    line("Avg. No. unionable tables", r => f"${r.avgUnionable}%.1f")
    line("Avg. No. rows per table", r => f"${r.avgRows}%.0f")
    line("Total columns", _.totalColumns.toString)
    types.foreach(t => line(s"$t cols.", _.typeCounts.getOrElse(t, 0L).toString))
    sb.toString
  }
}
