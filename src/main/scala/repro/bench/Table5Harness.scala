package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.automl.{AutomationTrainer, CleaningOps}
import repro.data.MlDatasets
import repro.substrate.baselines.HoloCleanLike
import repro.substrate.ml.{ResourceGovernor, TaskEvaluator}

/** Table 5 — data cleaning F1: drop-nulls baseline vs HoloClean (Aimnet)
  * vs KGLiDS on the 13-dataset benchmark. Also reports the per-system
  * time and memory columns (the Fig. 7 shape) from the same runs.
  *
  * Scaled budgets (DESIGN.md §3): HoloClean gets 450 MB of materialized
  * state (the paper gave it 189 GB and it still OOMed on the largest
  * datasets) and 15 minutes.
  */
object Table5Harness {

  val HoloMemBudget: Long  = 450L * 1024 * 1024
  val HoloTimeBudgetMs: Long = 15 * 60 * 1000L
  val Folds = 3

  case class Row(
      id: Int, name: String, rows: Int,
      baselineF1: Double,
      holocleanF1: Option[Double], // None = OOM
      kglidsF1: Double,
      recommendedOp: String,
      holoSec: Double, kglidsSec: Double,
      holoMemMb: Double, kglidsMemMb: Double,
  )

  def run(spark: SparkSession): Seq[Row] = {
    val forest = TaskEvaluator.RandomForest(numTrees = 40, maxDepth = 8)
    val trained = AutomationTrainer.trainOn(
      spark, MlDatasets.cleaningTrainingCorpus(4), pipelinesPer = 4, seed = 11)

    MlDatasets.cleaningBenchmark.map { d =>
      val df = d.generate(spark).cache()
      df.count()

      // ---------------- baseline: drop rows with nulls
      val baseline = TaskEvaluator.crossValidate(
        df.na.drop(d.featureCols), d.labelCol, d.featureCols, forest, Folds)

      // ---------------- HoloClean (governed)
      val holo = ResourceGovernor.run(HoloMemBudget, HoloTimeBudgetMs) { gov =>
        val cleaned = new HoloCleanLike().clean(spark, df, d.featureCols, gov)
        cleaned.count()
        cleaned
      }
      val (holoF1, holoSec, holoMem) = holo match {
        case ResourceGovernor.Ok(cleaned, ms, bytes) =>
          (Some(TaskEvaluator.crossValidate(
             cleaned, d.labelCol, d.featureCols, forest, Folds)),
           ms / 1000.0, bytes / 1024.0 / 1024.0)
        case ResourceGovernor.Oom(ms)     => (None, ms / 1000.0, HoloMemBudget / 1024.0 / 1024.0)
        case ResourceGovernor.Timeout(ms) => (None, ms / 1000.0, 0.0)
      }

      // ---------------- KGLiDS: profile → GNN recommend → apply
      val ((op, cleaned), kglidsSec) = Timing.once {
        val op = trained.cleaning.recommendForTable(spark, df)
        val cleaned = CleaningOps(op, df, d.featureCols).cache()
        cleaned.count()
        (op, cleaned)
      }
      // fixed-size state: column embeddings (350 dims/col) + GNN weights
      val kglidsMemMb =
        (d.featureCols.size + 1) * 350 * 8 / 1024.0 / 1024.0 +
          repro.core.embed.TableEmbedding.Dim * CleaningOps.All.size * 8 / 1024.0 / 1024.0
      val kglidsF1 = TaskEvaluator.crossValidate(
        cleaned, d.labelCol, d.featureCols, forest, Folds)
      cleaned.unpersist(); df.unpersist()

      Row(d.id, d.name, d.rows, baseline, holoF1, kglidsF1, op,
          holoSec, kglidsSec, holoMem, kglidsMemMb)
    }
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"ID - Dataset"}%-30s${"Rows"}%8s${"Baseline"}%10s${"HoloClean"}%11s${"KGLiDS"}%9s${"Rec. op"}%18s\n")
    rows.foreach { r =>
      val holo = r.holocleanF1.map(v => f"$v%.2f").getOrElse("OOM")
      sb.append(f"${s"${r.id} - ${r.name}"}%-30s${r.rows}%8d${r.baselineF1}%10.2f$holo%11s${r.kglidsF1}%9.2f${r.recommendedOp}%18s\n")
    }
    sb.append("\nTime / memory (Fig. 7 shape):\n")
    sb.append(f"${"ID"}%4s${"Holo (s)"}%10s${"KGLiDS (s)"}%12s${"Holo (MB)"}%12s${"KGLiDS (MB)"}%13s\n")
    rows.foreach { r =>
      sb.append(f"${r.id}%4d${r.holoSec}%10.1f${r.kglidsSec}%12.1f${r.holoMemMb}%12.1f${r.kglidsMemMb}%13.3f\n")
    }
    sb.toString
  }
}
