package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench._

/** spark-submit entrypoint for the evaluation tables: prints Table N.
  * The corpus size (default 300) applies to Tables 3 and 4.
  *
  * {{{ spark-submit --class repro.jobs.Tables repro.jar <1-6> [corpusSize] }}}
  */
object Tables {
  private val Usage =
    "usage: repro.jobs.Tables <1-6> [corpusSize]   (corpusSize > 0, Tables 3 and 4 only; default 300)"

  def main(args: Array[String]): Unit = {
    val (table, corpusSize) = args.toSeq match {
      case Seq(t @ ("1" | "2" | "3" | "4" | "5" | "6")) => (t.toInt, 300)
      case Seq(t @ ("3" | "4"), n) if n.toIntOption.exists(_ > 0) => (t.toInt, n.toInt)
      case _ => Console.err.println(Usage); sys.exit(2)
    }
    val spark = SparkSession.builder.appName(s"kglids-table$table")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(table match {
      case 1 => Table1Harness.format(Table1Harness.run(spark))
      case 2 => Table2Harness.format(Table2Harness.run(spark))
      case 3 => Table3Harness.format(Table3Harness.run(spark, corpusSize))
      case 4 => Table4Harness.format(Table4Harness.run(spark, corpusSize))
      case 5 => Table5Harness.format(Table5Harness.run(spark))
      case 6 => Table6Harness.format(Table6Harness.run(spark))
    })
    finally spark.stop()
  }
}
