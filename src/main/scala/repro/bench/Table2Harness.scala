package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.discovery.KglidsDiscovery
import repro.data.{Lake, LakeBench}
import repro.substrate.baselines.{SantosLike, StarmieLike}

/** Table 2 — preprocessing and average query time for SANTOS, Starmie,
  * and KGLiDS on the four benchmark lakes (+ precision/recall@k, which
  * supports the Fig. 5 accuracy claims from the same runs).
  */
object Table2Harness {

  case class Row(
      benchmark: String,
      system: String,
      preprocessSec: Double,
      avgQuerySec: Double,
      precisionAtK: Double,
      recallAtK: Double,
  )

  /** Precision/recall@k averaged over the lake's query tables. */
  private def prAtK(lake: Lake, k: Int,
                    query: String => Seq[String]): (Double, Double) = {
    val prs = lake.queryTables.map { q =>
      val gt  = lake.unionableGroundTruth(q)
      val got = query(q).take(k).toSet
      val hit = got.count(gt)
      (hit.toDouble / math.max(1, k), hit.toDouble / math.max(1, gt.size))
    }
    (prs.map(_._1).sum / prs.size, prs.map(_._2).sum / prs.size)
  }

  /** Run the three systems on one lake; `k` = expected family size.
    * Preprocessing is timed once per system (SANTOS takes minutes on the
    * large lake); a query pass over the lake's query tables is timed by
    * [[Timing.warmMedian]].
    */
  def runLake(spark: SparkSession, spec: LakeBench.Spec): Seq[Row] = {
    val lake = LakeBench.generate(spec)
    val k    = spec.partitionsPerFamily - 1

    val santos = new SantosLike()
    val (_, santosPrep) = Timing.once(santos.preprocess(lake))
    val starmie = new StarmieLike()
    val (_, starmiePrep) = Timing.once(starmie.preprocess(lake))
    // KGLiDS's data is staged outside the timed section, like the
    // in-memory lake the local baselines receive
    val cells = lake.cells(spark).cache()
    cells.count()
    val (prepared, kglidsPrep) = Timing.once(KglidsDiscovery.preprocessCells(spark, cells))
    cells.unpersist()

    val Seq((santosPR, santosQuery), (starmiePR, starmieQuery), (kglidsPR, kglidsQuery)) =
      Timing.warmMedian(Seq(
        () => prAtK(lake, k, q => santos.queryUnionable(lake, q, k).map(_._1)),
        () => prAtK(lake, k, q => starmie.queryUnionable(lake, q, k).map(_._1)),
        () => prAtK(lake, k, q => KglidsDiscovery.queryUnionable(prepared, s"${lake.name}/$q", k)
          .map(_._1.stripPrefix(s"${lake.name}/")))))

    val nq = lake.queryTables.size.toDouble
    Seq(
      Row(spec.name, "SANTOS", santosPrep, santosQuery / nq, santosPR._1, santosPR._2),
      Row(spec.name, "Starmie", starmiePrep, starmieQuery / nq, starmiePR._1, starmiePR._2),
      Row(spec.name, "KGLiDS", kglidsPrep, kglidsQuery / nq, kglidsPR._1, kglidsPR._2),
    )
  }

  /** Every lake, after [[warmUp]]. */
  def run(spark: SparkSession): Seq[Row] = {
    warmUp(spark)
    Table1Harness.lakeSpecs.flatMap(runLake(spark, _))
  }

  /** Preprocesses santos_lite_small once with each system, untimed, so
    * that the first timed lake does not carry the JVM's and Spark's
    * warm-up.
    */
  private def warmUp(spark: SparkSession): Unit = {
    val lake = LakeBench.generate(LakeBench.santosLiteSmall)
    new SantosLike().preprocess(lake)
    new StarmieLike().preprocess(lake)
    KglidsDiscovery.preprocess(spark, lake)
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"Benchmark"}%-20s${"System"}%-10s${"Preproc (s)"}%14s${"Avg query (s)"}%16s${"P@k"}%8s${"R@k"}%8s\n")
    rows.foreach { r =>
      sb.append(f"${r.benchmark}%-20s${r.system}%-10s${r.preprocessSec}%14.2f${r.avgQuerySec}%16.4f${r.precisionAtK}%8.2f${r.recallAtK}%8.2f\n")
    }
    sb.toString
  }
}
