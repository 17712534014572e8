package perfbench

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.automl.{AutomationTrainer, CleaningOps, GnnRecommender, HyperparamRecommender,
  TransformOps}
import repro.core.discovery.{JoinSearch, PredefinedOps}
import repro.core.embed.TableEmbedding
import repro.core.graph.GraphLinker
import repro.core.pipeline.PipelineAbstraction
import repro.core.profile.{ColumnProfile, DataProfiler}
import repro.data.{MlDataset, MlDatasets, PipelineCorpus}

/** `kg_serve`: a data scientist using the LiDS graph (§5, Tables 5/6).
  *
  * Set-up trains the automation models, which builds the full LiDS graph
  * (profiles, Alg. 3, pipeline abstraction, linking) and trains the GNNs.
  * Each iteration is one session, `batch_s`: one call to each KGLiDS
  * Interfaces operation in a fixed order, with arguments drawn from the
  * graph by the seed, then on-demand cleaning of three unseen Table 5
  * datasets, whose per-dataset times (recommend + apply) are the calls.
  */
final class KgServe(spark: SparkSession, seed: Long, ops: Ops) extends Workload {

  val name         = "kg_serve"
  val batchName    = "session_s"
  val callName     = "automate_ms"
  // one set-up costs about 25 s, as much as the rest of a run
  val setupRepeats = 1

  private val trainSeed = Main.derive(seed, "kg")
  private val datasets: Seq[MlDataset] =
    MlDatasets.cleaningTrainingCorpus(KgServe.PerFamily)
      .map(d => d.copy(seed = Main.derive(seed, d.name)))
  private val unseen: Seq[MlDataset] =
    MlDatasets.cleaningBenchmark.take(3).map(d => d.copy(seed = Main.derive(seed, d.name)))

  private var trained: AutomationTrainer.Trained = _
  private var unseenFrames: Seq[(MlDataset, DataFrame)] = Nil
  private var tables: IndexedSeq[String]               = IndexedSeq.empty
  private var sessions                                 = 0
  private val answers = mutable.Map.empty[String, Any]
  private val chosen  = mutable.Map.empty[String, Int].withDefaultValue(0)

  def setup(): Unit = {
    trained = AutomationTrainer.trainOn(spark, datasets, KgServe.PipelinesPer, trainSeed)
    tables = trained.profilesByTable.keys.toIndexedSeq.sorted
    unseenFrames = unseen.map { d =>
      val df = d.generate(spark).cache(); df.count(); (d, df)
    }
  }

  def release(): Unit = {
    trained.store.unpersist()
    unseenFrames.foreach(_._2.unpersist())
  }

  /** The linking, example-extraction and training phases of set-up, each
    * on its own on cached inputs: set-up's profiles and re-abstracted
    * pipelines.
    */
  override def traceSetup(tr: Tracer): Unit = {
    import spark.implicits._
    val profiles = spark.createDataset(trained.profilesByTable.values.flatten.toSeq).cache()
    profiles.count()
    val scripts = PipelineCorpus.forDatasets(datasets.map(PipelineCorpus.refOf),
                                             KgServe.PipelinesPer, trainSeed)
    val graphs = PipelineAbstraction.abstractCorpus(spark, spark.createDataset(scripts)).cache()
    graphs.count()
    tr.span("graph.link") {
      val l = GraphLinker.link(spark, graphs, profiles).cache(); l.count(); l.unpersist()
    }
    val byTable = trained.profilesByTable
    val (cleaning, scaling) = tr.span("automl.extract") {
      val c = GnnRecommender.extractTableOpExamples(trained.store, GnnRecommender.CleaningFunctions)
      val s = GnnRecommender.extractTableOpExamples(trained.store, GnnRecommender.ScalerFunctions)
      val u = GnnRecommender.extractColumnOpExamples(trained.store, GnnRecommender.UnaryFunctions)
      tr.count("automl.examples", (c.size + s.size + u.size).toDouble)
      (c, s)
    }
    def examples(pairs: Seq[(String, String)], embed: Seq[ColumnProfile] => Array[Double]) =
      pairs.flatMap { case (t, op) => byTable.get(t).map(ps => GnnRecommender.Example(t, embed(ps), op)) }
    tr.span("automl.train") {
      GnnRecommender.train(examples(cleaning, TableEmbedding.forMissingValueColumns),
        CleaningOps.All, missingOnly = true, seed = trainSeed)
      GnnRecommender.train(examples(scaling, TableEmbedding.fromProfiles),
        TransformOps.Scalers, seed = trainSeed)
    }
    graphs.unpersist(); profiles.unpersist()
  }

  /** One KG operation of a session: span/metric name, arguments, call. */
  private final case class Op(metric: String, args: String, run: () => Any)

  /** Rows in a canonical order, doubles to 9 digits: the order of ties
    * and the last bits of a distributed average are not part of an answer.
    */
  private def rows(df: DataFrame): Seq[Seq[Any]] =
    df.collect().toSeq.map(_.toSeq.map {
      case d: Double => BigDecimal(d).round(new java.math.MathContext(9)).toDouble
      case v         => v
    }).sortBy(_.toString)

  private def sessionOps(rng: Random): Seq[Op] = {
    def pick[A](xs: Seq[A]): A = xs(rng.nextInt(xs.size))
    val store = trained.store
    val keywords = datasets.map(_.family).distinct ++ datasets.head.featureCols :+ "label"
    val groups = Seq.fill(1 + rng.nextInt(2))(Seq.fill(1 + rng.nextInt(2))(pick(keywords)).distinct)
    val t1 = pick(tables)
    val t2 = pick(tables.filterNot(_ == t1))
    val tj = pick(tables)
    val kj = 3 + rng.nextInt(3)
    val kl = 3 + rng.nextInt(6)
    val libs = Seq.fill(1 + rng.nextInt(2))(pick(KgServe.Libraries)).distinct
    val ds = pick(datasets)
    val th = pick(tables)
    val est = KgServe.estimator(th.takeWhile(_ != '/'))
    Seq(
      Op("discovery.search_tables", s"$groups",
         () => rows(PredefinedOps.searchTables(store, groups))),
      Op("discovery.find_unionable", s"$t1,$t2",
         () => rows(PredefinedOps.findUnionableColumns(store, t1, t2))),
      Op("discovery.top_k_joinable", s"$tj,$kj",
         () => JoinSearch.topKJoinable(store, tj, kj)),
      Op("discovery.top_k_library", s"$kl",
         () => rows(PredefinedOps.getTopKLibraryUsed(store, kl))),
      Op("discovery.pipelines_calling", s"$libs",
         () => rows(PredefinedOps.getPipelinesCallingLibraries(store, libs))),
      Op("discovery.recommend_models", ds.name,
         () => rows(PredefinedOps.recommendMlModels(store, ds.name, KgServe.Estimators))),
      Op("automl.hyperparams", s"$th,$est",
         () => HyperparamRecommender.recommend(store, trained.tableIndex,
                 trained.tableIndex.vectorOf(th).get, est)),
    )
  }

  /** Runs one op; an answer must equal the one given before for the same
    * arguments.
    */
  private def call(op: Op, tr: Tracer): Double =
    ops.timed(op.metric)(tr.span(op.metric)(op.run())) { res =>
      val key = s"${op.metric}(${op.args})"
      answers.get(key) match {
        case Some(prev) if prev != res => Seq(s"$key answered $res, before $prev")
        case Some(_)                   => Nil
        case None                      => answers(key) = res; Nil
      }
    }._2

  /** On-demand cleaning of one unseen dataset: recommend, apply, count. */
  private def automate(d: MlDataset, df: DataFrame, tr: Tracer): Double = {
    var cleaned: DataFrame = null
    val (_, ms) = ops.timed("automate") {
      val op =
        if (!tr.enabled) trained.cleaning.recommendForTable(spark, df)
        else {
          val profiles = tr.span("automl.profile")(DataProfiler.profileTable(spark, "unseen", "t", df))
          tr.span("automl.predict") {
            val rec = trained.cleaning
            rec.predictFromEmbedding(
              if (rec.missingOnly) TableEmbedding.forMissingValueColumns(profiles)
              else TableEmbedding.fromProfiles(profiles))
          }
        }
      tr.span("automl.apply") {
        cleaned = CleaningOps(op, df, d.featureCols).cache(); cleaned.count()
      }
      op
    } { op =>
      chosen(op) += 1
      val nulls = cleaned.filter(d.featureCols.map(col(_).isNull).reduce(_ || _)).count()
      (if (CleaningOps.All.contains(op)) Nil else Seq(s"unknown op $op")) ++
        (if (nulls == 0) Nil else Seq(s"$nulls rows with nulls after $op on ${d.name}"))
    }
    if (cleaned != null) cleaned.unpersist()
    ms
  }

  def iteration(tr: Tracer): Sample = {
    sessions += 1
    val kgOps = sessionOps(new Random(Main.derive(seed, s"session$sessions")))
    val t0 = System.nanoTime()
    tr.span("discovery.ops")(kgOps.filter(_.metric.startsWith("discovery.")).foreach(call(_, tr)))
    kgOps.filterNot(_.metric.startsWith("discovery.")).foreach(call(_, tr))
    val calls = unseenFrames.map { case (d, df) => automate(d, df, tr) }
    val sessionS = (System.nanoTime() - t0) / 1e9
    // outside the session: ask one op again, which must answer the same
    call(kgOps((seed + sessions).toInt.abs % kgOps.size), Tracer.Off)
    Sample(sessionS, calls)
  }

  override def report(): Seq[String] = Seq(
    s"KG: ${trained.store.size} triples, ${tables.size} tables; sessions $sessions",
    s"recommended cleaning ops: ${chosen.toSeq.sorted.mkString(", ")}")
}

object KgServe {
  /** Training datasets per cleaning family, and pipelines per dataset:
    * 40 pipelines, as in `cleaningTrainingCorpus(2)` with 4 each, on half
    * the datasets. Training needs a scaler example, which a pipeline has
    * with chance 0.15; with 20 pipelines 4% of seeds had none (set-up
    * throws), with 40 it is 0.15%.
    */
  val PerFamily    = 1
  val PipelinesPer = 8

  def estimator(dataset: String): String = {
    val (cls, module, _) = PipelineCorpus.estimatorFor(dataset)
    s"$module.$cls"
  }

  val Estimators: Seq[String] =
    MlDatasets.cleaningTrainingCorpus(PerFamily).map(d => estimator(d.name)).distinct.sorted

  val Libraries: Seq[String] = Seq(
    "pandas.read_csv", "pandas.DataFrame.fillna", "pandas.DataFrame.interpolate",
    "sklearn.impute.SimpleImputer", "sklearn.impute.KNNImputer",
    "sklearn.model_selection.train_test_split", "sklearn.preprocessing.StandardScaler")
}
