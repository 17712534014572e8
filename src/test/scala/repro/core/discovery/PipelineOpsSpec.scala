package repro.core.discovery

import org.apache.spark.sql.functions.lit

import repro.{Oracle, SparkSpec}
import repro.core.automl.HyperparamRecommender
import repro.core.graph.{GraphLinker, Lids, LidsGraphBuilder, SchemaBuilder}
import repro.core.pipeline.PipelineAbstraction
import repro.core.profile.DataProfiler
import repro.data.{MlDatasets, PipelineCorpus}
import repro.substrate.rdf.{Triple, TripleStore}

/** Pre-defined operations over pipeline named graphs (§5): library
  * usage statistics, pipeline search, classifier recommendation.
  */
class PipelineOpsSpec extends SparkSpec {

  import spark.implicits._

  private lazy val datasets = MlDatasets.cleaningTrainingCorpus(2)
  private lazy val profiles = DataProfiler.profileCells(spark, datasets.map { d =>
    DataProfiler.cellsOf(spark, d.name, "data", d.generate(spark))
  }.reduce(_ union _)).cache()
  private lazy val scripts = spark.createDataset(
    PipelineCorpus.forDatasets(datasets.map(PipelineCorpus.refOf), 3, seed = 9))
  /** The LiDS graph as `AutomationTrainer.buildKg` builds it; the oracles
    * read the store's own triples.
    */
  private lazy val store = LidsGraphBuilder.build(spark, profiles, scripts)
  private def triples = store.triples.toDF()

  test("the store is the schema's triples, then the linked pipelines', in order") {
    val expected = SchemaBuilder.triples(profiles.collect().toSeq) ++
      GraphLinker.link(spark, PipelineAbstraction.abstractCorpus(spark, scripts), profiles)
        .collect()
    assert(store.triples == expected)
  }

  test("get_top_k_library_used ranks pandas and sklearn at the top") {
    val top = PredefinedOps.getTopKLibraryUsed(store, 5).collect()
    assert(top.nonEmpty)
    val libs = top.map(_.getString(0)).toSeq
    assert(libs.contains("pandas"), s"got $libs")
    assert(libs.contains("sklearn"), s"got $libs")
    // counts descend
    val counts = top.map(_.getLong(1))
    assert(counts.toSeq == counts.sorted.reverse.toSeq)
  }
  test("library usage counts unique pipelines, not call sites") {
    val top = PredefinedOps.getTopKLibraryUsed(store, 3).collect()
    val total = datasets.size * 3L
    assert(top.forall(_.getLong(1) <= total))
  }
  test("get_pipelines_calling_libraries intersects all given paths") {
    val both = PredefinedOps.getPipelinesCallingLibraries(store, Seq(
      "pandas.read_csv", "sklearn.model_selection.train_test_split")).collect()
    assert(both.nonEmpty)
    // votes column is populated and sorted descending
    val votes = both.map(_.getInt(2))
    assert(votes.toSeq == votes.sorted.reverse.toSeq)
  }
  test("pipelines calling a never-used library is empty") {
    assert(PredefinedOps.getPipelinesCallingLibraries(store,
      Seq("sklearn.cluster.KMeans")).collect().isEmpty)
  }
  test("recommend_ml_models returns estimators used on the dataset with scores") {
    val d = datasets.head
    val (cls, module, _) = PipelineCorpus.estimatorFor(d.name)
    val rec = PredefinedOps.recommendMlModels(store, d.name,
      Seq(s"$module.$cls", "sklearn.svm.SVC")).collect()
    assert(rec.nonEmpty)
    assert(rec.head.getString(0).endsWith(cls))
    assert(rec.head.getDouble(1) > 0.0 && rec.head.getDouble(1) < 1.0)
  }
  test("recommend_ml_models for an unknown dataset is empty") {
    assert(PredefinedOps.recommendMlModels(store, "no_such_dataset",
      Seq("xgboost.XGBClassifier")).collect().isEmpty)
  }

  private val P = Lids.ResourcePrefix
  private def calls = s"predicate = '${Lids.Prop.CallsFunction}'"

  test("get_top_k_library_used matches the DuckDB oracle and sorts by pipelines, library") {
    for (k <- Seq(3, 100)) {
      val got  = PredefinedOps.getTopKLibraryUsed(store, k)
      val keys = got.collect().map(r => (-r.getLong(1), r.getString(0))).toSeq
      assert(keys.nonEmpty && keys.size <= k)
      assert(keys == keys.sorted)
      Oracle.assertEquivalent(got,
        s"""SELECT library, COUNT(DISTINCT graph) AS pipelines
           |FROM (SELECT regexp_extract(obj, 'library/([^/]+)', 1) AS library, graph
           |      FROM triples WHERE $calls)
           |WHERE library <> '' GROUP BY library
           |ORDER BY pipelines DESC, library LIMIT $k""".stripMargin,
        "triples" -> triples)
    }
  }
  test("get_pipelines_calling_libraries matches the DuckDB oracle and sorts by votes, pipeline") {
    val libs = Seq("pandas.read_csv", "sklearn.model_selection.train_test_split")
    val got  = PredefinedOps.getPipelinesCallingLibraries(store, libs)
    val keys = got.collect().map(r => (-r.getInt(2), r.getString(0))).toSeq
    assert(keys.nonEmpty)
    assert(keys == keys.sorted)
    val callers = libs.map(l =>
      s"w.graph IN (SELECT graph FROM triples WHERE $calls " +
        s"AND obj = '${Lids.libraryUri(l)}')")
    Oracle.assertEquivalent(got,
      s"""SELECT replace(w.subject, '$P', '') AS pipeline, w.obj AS author,
         |       TRY_CAST(v.obj AS INTEGER) AS votes, replace(d.obj, '$P', '') AS dataset
         |FROM triples w
         |JOIN triples v ON v.subject = w.subject AND v.graph = w.graph
         |               AND v.predicate = '${Lids.Prop.HasVotes}'
         |JOIN triples d ON d.subject = w.subject AND d.graph = w.graph
         |               AND d.predicate = '${Lids.Prop.AboutDataset}'
         |WHERE w.predicate = '${Lids.Prop.IsWrittenBy}' AND ${callers.mkString(" AND ")}""".stripMargin,
      "triples" -> triples)
  }
  test("recommend_ml_models matches the DuckDB oracle and sorts by avg_score, estimator") {
    val estimators = datasets.map { d =>
      val (cls, module, _) = PipelineCorpus.estimatorFor(d.name); s"$module.$cls"
    }.distinct :+ "sklearn.preprocessing.StandardScaler"
    val perDataset = datasets.map { d =>
      val got  = PredefinedOps.recommendMlModels(store, d.name, estimators)
      val keys = got.collect().map(r => (-r.getDouble(1), r.getString(0))).toSeq
      assert(keys.nonEmpty)
      assert(keys == keys.sorted)
      got.withColumn("dataset", lit(Lids.datasetUri(d.name)))
    }
    // uses counts call sites: rows of the 3-pattern BGP, not pipelines
    Oracle.assertEquivalent(perDataset.reduce(_ union _),
      s"""SELECT a.obj AS dataset, replace(c.obj, '${P}library/', '') AS estimator,
         |       AVG(TRY_CAST(s.obj AS DOUBLE)) AS avg_score, COUNT(*) AS uses
         |FROM triples a
         |JOIN triples s ON s.subject = a.subject AND s.graph = a.graph
         |               AND s.predicate = '${Lids.Prop.HasScore}'
         |JOIN triples c ON c.graph = a.graph AND c.$calls
         |WHERE a.predicate = '${Lids.Prop.AboutDataset}'
         |  AND a.obj IN (${datasets.map(d => s"'${Lids.datasetUri(d.name)}'").mkString(", ")})
         |  AND c.obj IN (${estimators.map(e => s"'${Lids.libraryUri(e)}'").mkString(", ")})
         |GROUP BY a.obj, c.obj""".stripMargin,
      "triples" -> triples)
  }

  // `count()` is not covered: on a local DataFrame it is still an
  // aggregate with an exchange, two Spark jobs in Spark 4.1.
  test("the KGLiDS Interfaces ops and collecting their rows run no Spark job") {
    store.index
    val tables = profiles.map(_.tableId).distinct().collect().toSeq.sorted
    val d = datasets.head
    val (cls, module, _) = PipelineCorpus.estimatorFor(d.name)
    val jobs = sparkJobsOf {
      Seq(
        PredefinedOps.searchTables(store, Seq(Seq("label"))),
        PredefinedOps.findUnionableColumns(store, tables(0), tables(1)),
        PredefinedOps.getTopKLibraryUsed(store, 5),
        PredefinedOps.getPipelinesCallingLibraries(store, Seq("pandas.read_csv")),
        PredefinedOps.recommendMlModels(store, d.name, Seq(s"$module.$cls")),
      ).foreach(_.collect())
      JoinSearch.topKJoinable(store, tables(0), 3)
    }
    assert(jobs == 0)
    assert(sparkJobsOf(profiles.count()) > 0, "the listener must see a Spark job")
  }

  // Three pipelines calling SVC on table d/t; p2's votes and score are
  // not numbers.
  private val svc = "sklearn.svm.SVC"
  private lazy val malformed = TripleStore(spark, Seq(("p1", "7", "0.5"), ("p2", "many", "n/a"),
                                                      ("p3", "3", "0.7")).flatMap {
    case (id, votes, score) =>
      val p = Lids.pipelineGraph(id)
      Seq(Triple(p, p, Lids.Prop.IsWrittenBy, "ann"),
          Triple(p, p, Lids.Prop.HasVotes, votes),
          Triple(p, p, Lids.Prop.HasScore, score),
          Triple(p, p, Lids.Prop.AboutDataset, Lids.datasetUri("d")),
          Triple(p, s"$p/s1", Lids.Prop.ReadsTable, Lids.tableUri("d", "t")),
          Triple(p, s"$p/s2", Lids.Prop.CallsFunction, Lids.libraryUri(svc)),
          Triple(p, s"$p/s2", Lids.Prop.HasParameter, s"C=$id"))
  })

  test("a non-integer vote is null and sorts last") {
    val rows = PredefinedOps.getPipelinesCallingLibraries(malformed, Seq(svc)).collect()
    assert(rows.map(r => (r.getString(0), Option(r.get(2)))).toSeq ==
      Seq(("p1", Some(7)), ("p3", Some(3)), ("p2", None)))
    // the two voted pipelines are the top two
    assert(HyperparamRecommender.paramsUsedWith(malformed, "d/t", svc, topPipelines = 2)
      .toSet == Set("C" -> "p1", "C" -> "p3"))
  }
  test("a non-numeric score is left out of avg_score but counted in uses") {
    val rec = PredefinedOps.recommendMlModels(malformed, "d", Seq(svc)).collect()
    assert(rec.length == 1)
    assert(rec.head.getString(0) == "sklearn/svm/SVC")
    assert(math.abs(rec.head.getDouble(1) - 0.6) < 1e-12)
    assert(rec.head.getLong(2) == 3L)
  }
}
