package repro.substrate.baselines

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}

import repro.substrate.ml.Cells.numAt
import repro.substrate.ml.ResourceGovernor

/** HoloClean (Aimnet variant) — general statistical data repair (§6.3.1).
  *
  * Per dataset it (i) bins every attribute into a candidate domain,
  * (ii) materializes the per-cell candidate/feature tables HoloClean
  * builds (the memory that grows with dataset size — metered through the
  * governor, which raises the paper's OOM on the largest datasets),
  * (iii) trains per-attribute attention weights over co-occurrence
  * evidence for several epochs (Aimnet's learned imputation model), and
  * (iv) imputes each missing cell with the argmax candidate under the
  * attention-weighted co-occurrence likelihood.
  */
final class HoloCleanLike {
  private val bins = 20
  private val epochs = 8
  private val trainSample = 20000
  private val bytesPerCandidateEntry = 100L

  /** Impute all nulls in `featureCols` (numeric doubles) of `df`. */
  def clean(spark: SparkSession, df: DataFrame, featureCols: Seq[String],
            gov: ResourceGovernor): DataFrame = {
    val otherCols = df.columns.filterNot(featureCols.contains).toSeq
    val rows = df.select((featureCols ++ otherCols).map(org.apache.spark.sql.functions.col): _*)
      .collect()
    val n = rows.length
    val d = featureCols.size

    // ---- candidate-domain construction (quantile bins per attribute)
    val binEdges: Array[Array[Double]] = Array.tabulate(d) { j =>
      val vals = rows.iterator.filterNot(_.isNullAt(j)).map(numAt(_, j)).toArray.sorted
      if (vals.isEmpty) Array(0.0)
      else (1 until bins).map(b => vals(math.min(vals.length - 1, vals.length * b / bins))).toArray.distinct
    }
    def binOf(j: Int, v: Double): Int = {
      val e = binEdges(j)
      var b = 0
      while (b < e.length && v > e(b)) b += 1
      b
    }
    def binCenter(j: Int, b: Int): Double = {
      val e = binEdges(j)
      if (e.isEmpty) 0.0
      else if (b == 0) e(0)
      else if (b >= e.length) e(e.length - 1)
      else (e(b - 1) + e(b)) / 2.0
    }

    // ---- HoloClean's per-cell candidate tables: n × d cells × |domain|
    // candidates; this is the state that OOMs on large datasets
    gov.charge(n.toLong * d * (bins + 1) * bytesPerCandidateEntry)
    gov.checkTime()

    // binned view of the data
    val binned: Array[Array[Int]] = rows.map { r =>
      Array.tabulate(d)(j => if (r.isNullAt(j)) -1 else binOf(j, numAt(r, j)))
    }

    // ---- co-occurrence statistics cooc(j→target)(binJ)(binT)
    val cooc = Array.fill(d, d)(mutable.Map.empty[(Int, Int), Int])
    val marginal = Array.fill(d)(mutable.Map.empty[Int, Int])
    binned.foreach { b =>
      var j = 0
      while (j < d) {
        if (b(j) >= 0) {
          marginal(j)(b(j)) = marginal(j).getOrElse(b(j), 0) + 1
          var t = 0
          while (t < d) {
            if (t != j && b(t) >= 0)
              cooc(j)(t)((b(j), b(t))) = cooc(j)(t).getOrElse((b(j), b(t)), 0) + 1
            t += 1
          }
        }
        j += 1
      }
      gov.charge(16L * d) // co-occurrence entries materialized
    }
    gov.checkTime()

    def candScore(target: Int, cand: Int, b: Array[Int], attn: Array[Double]): Double = {
      var s = 0.0
      var j = 0
      while (j < d) {
        if (j != target && b(j) >= 0) {
          val joint = cooc(j)(target).getOrElse((b(j), cand), 0)
          val marg  = marginal(j).getOrElse(b(j), 0)
          s += attn(j) * math.log((joint + 1.0) / (marg + bins))
        }
        j += 1
      }
      s + math.log((marginal(target).getOrElse(cand, 0) + 1.0) / (n + bins))
    }

    // ---- Aimnet-style attention training per target attribute: epochs
    // of likelihood gradient ascent on observed cells
    val attention = Array.fill(d)(Array.fill(d)(1.0))
    val sampleIdx = (0 until math.min(n, trainSample))
    (0 until epochs).foreach { _ =>
      gov.checkTime()
      var target = 0
      while (target < d) {
        val attn = attention(target)
        sampleIdx.foreach { i =>
          val b = binned(i)
          if (b(target) >= 0) {
            // up-weight evidence attributes that rank the truth highly
            var j = 0
            while (j < d) {
              if (j != target && b(j) >= 0) {
                val joint = cooc(j)(target).getOrElse((b(j), b(target)), 0)
                val marg  = marginal(j).getOrElse(b(j), 0)
                val ll    = math.log((joint + 1.0) / (marg + bins)) - math.log(1.0 / bins)
                attn(j) = math.max(0.05, math.min(5.0, attn(j) + 0.0005 * ll))
              }
              j += 1
            }
          }
        }
        target += 1
      }
    }
    gov.checkTime()

    // ---- per-cell inference: argmax candidate → bin center
    val imputed = rows.zipWithIndex.map { case (r, i) =>
      val b = binned(i)
      val values = Array.tabulate(d) { j =>
        if (!r.isNullAt(j)) numAt(r, j)
        else {
          var bestB = 0; var bestS = Double.NegativeInfinity
          var cand = 0
          while (cand <= bins) {
            val s = candScore(j, cand, b, attention(j))
            if (s > bestS) { bestS = s; bestB = cand }
            cand += 1
          }
          binCenter(j, bestB)
        }
      }
      Row.fromSeq(values.toSeq ++ otherCols.indices.map(o => r.get(d + o)))
    }

    val schema = StructType(
      featureCols.map(c => StructField(c, DoubleType, nullable = false)) ++
        otherCols.map(c => StructField(c, df.schema(c).dataType, nullable = true)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(imputed.toIndexedSeq), schema)
  }
}
