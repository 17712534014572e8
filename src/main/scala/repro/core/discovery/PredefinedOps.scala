package repro.core.discovery

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.core.graph.Lids
import repro.substrate.rdf.{Term, TriplePattern, TripleStore}

/** The KGLiDS Interfaces pre-defined operations (§5), each compiled to
  * BGP queries over the LiDS graph and returned as a DataFrame (the
  * paper returns Pandas DataFrames).
  *
  * Every op runs on the driver: its BGPs are answered by the store's
  * index, and grouping, filtering and sorting are done on the local rows.
  * The result is a local DataFrame, already in the op's order, so
  * `collect()` on it runs no Spark job (`count()` still does: Spark plans
  * it as an aggregate with an exchange).
  */
object PredefinedOps {

  private def gvar(p: TriplePattern): TriplePattern = p.copy(graph = Some(Term.Var("g")))

  private def local(store: TripleStore, rows: Seq[Row], fields: StructField*): DataFrame =
    store.spark.createDataFrame(rows.asJava, StructType(fields))

  /** SQL's `DESC NULLS LAST`: largest first, a missing value last. */
  private def descNullsLast[A](ord: Ordering[A]): Ordering[Option[A]] =
    Ordering.by((x: Option[A]) => x.isEmpty).orElse(Ordering.Option(ord.reverse))

  /** `search_tables_based_on_specific_columns`: AND across groups, OR
    * within a group; a keyword matches when the table IRI or one of its
    * column labels contains it (case-insensitive substring).
    */
  def searchTables(store: TripleStore, andGroups: Seq[Seq[String]]): DataFrame = {
    val hay = store.index.select(Seq(
      TriplePattern(Term("?c"), Term.Lit(Lids.Prop.IsPartOf), Term("?t")),
      TriplePattern(Term("?t"), Term.Lit(Lids.Prop.RdfType), Term.Lit(Lids.Cls.Table)),
      TriplePattern(Term("?c"), Term.Lit(Lids.Prop.HasLabel), Term("?clabel")),
    )).groupMap(_.getAs[String]("t"))(r =>
      s"${r.getAs[String]("t")} ${r.getAs[String]("clabel")}".toLowerCase)
    val groups = andGroups.map(_.map(_.toLowerCase))
    val matched = hay.collect {
      case (t, labels) if groups.forall(g => g.exists(kw => labels.exists(_.contains(kw)))) =>
        Lids.idOf(t)
    }
    local(store, matched.toSeq.sorted.map(Row(_)), StructField("table_id", StringType))
  }

  /** `find_unionable_columns(t1, t2)`: matched (unionable) column pairs
    * between two tables — the recommended merged schema — by score
    * descending, then column_1.
    */
  def findUnionableColumns(store: TripleStore, tableId1: String,
                           tableId2: String): DataFrame = {
    val t1 = Lids.ResourcePrefix + tableId1
    val t2 = Lids.ResourcePrefix + tableId2
    val pairs = store.index.select(Seq(
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(t1)),
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.LabelSimilarity), Term("?c2"),
                    weightVar = Some("score")),
      TriplePattern(Term("?c2"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(t2)),
    )).map(r => (Lids.idOf(r.getAs[String]("c1")), Lids.idOf(r.getAs[String]("c2")),
                 r.getAs[Double]("score")))
    local(store,
      pairs.sortBy { case (c1, c2, s) => (-s, c1, c2) }.map { case (c1, c2, s) => Row(c1, c2, s) },
      StructField("column_1", StringType), StructField("column_2", StringType),
      StructField("score", DoubleType, nullable = false))
  }

  private val RootLibrary = "library/([^/]+)".r

  /** `get_top_k_library_used(k)`: libraries ranked by the number of
    * unique pipelines calling them (Fig. 4's query), then by name.
    */
  def getTopKLibraryUsed(store: TripleStore, k: Int): DataFrame = {
    val calls = store.index.select(Seq(gvar(
      TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term("?f")))))
    val top = calls
      .flatMap { r =>
        // root library = first path segment after …/library/
        RootLibrary.findFirstMatchIn(r.getAs[String]("f"))
          .map(m => (m.group(1), r.getAs[String]("g")))
      }
      .distinct
      .groupMapReduce(_._1)(_ => 1L)(_ + _).toSeq
      .sortBy { case (lib, n) => (-n, lib) }
      .take(k)
    local(store, top.map { case (lib, n) => Row(lib, n) },
      StructField("library", StringType), StructField("pipelines", LongType, nullable = false))
  }

  /** `get_pipelines_calling_libraries(paths…)`: pipelines whose named
    * graph calls every given dotted library path, with metadata, by
    * votes descending (a non-integer vote is null and sorts last), then
    * pipeline.
    */
  def getPipelinesCallingLibraries(store: TripleStore, paths: Seq[String]): DataFrame = {
    require(paths.nonEmpty)
    val pipelines = paths.map { p =>
      store.index.select(Seq(gvar(
        TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term.Lit(Lids.libraryUri(p)))
      ))).map(_.getAs[String]("g")).toSet
    }.reduce(_ intersect _)
    val meta = store.index.select(Seq(
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.IsWrittenBy), Term("?author")),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.HasVotes), Term("?votes")),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.AboutDataset), Term("?dataset")),
    ).map(gvar))
    val rows = meta.filter(r => pipelines(r.getAs[String]("g"))).map { r =>
      (Lids.idOf(r.getAs[String]("p")), r.getAs[String]("author"),
       r.getAs[String]("votes").trim.toIntOption, Lids.idOf(r.getAs[String]("dataset")))
    }
    local(store,
      rows.sortBy(r => (r._3, r._1))(Ordering.Tuple2(descNullsLast(Ordering.Int), Ordering.String))
        .map { case (p, a, v, d) => Row(p, a, v.map(Int.box).orNull, d) },
      StructField("pipeline", StringType), StructField("author", StringType),
      StructField("votes", IntegerType), StructField("dataset", StringType))
  }

  /** `recommend_ml_models(dataset)`: estimators used on a dataset's
    * pipelines with the pipeline score — the classifier-recommendation
    * query of §5. `uses` counts call sites; a non-numeric score is left
    * out of `avg_score`, as SQL's `AVG` leaves out nulls. By avg_score
    * descending (null last), then estimator.
    */
  def recommendMlModels(store: TripleStore, dataset: String,
                        estimators: Seq[String]): DataFrame = {
    // one BGP per estimator: the bound call target is an index lookup,
    // where a filter after the BGP would scan every call site per pipeline
    val byEstimator = estimators.map(Lids.libraryUri).distinct.map { f =>
      f.stripPrefix(Lids.ResourcePrefix + "library/") -> store.index.select(Seq(
        TriplePattern(Term("?p"), Term.Lit(Lids.Prop.AboutDataset),
                      Term.Lit(Lids.datasetUri(dataset))),
        TriplePattern(Term("?p"), Term.Lit(Lids.Prop.HasScore), Term("?score")),
        TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term.Lit(f)),
      ).map(gvar)).map(_.getAs[String]("score").trim.toDoubleOption)
    }.filter(_._2.nonEmpty)
    val ranked = byEstimator.map { case (est, scores) =>
      val known = scores.flatten
      (est, Option.when(known.nonEmpty)(known.sum / known.size), scores.size.toLong)
    }.sortBy(r => (r._2, r._1))(
      Ordering.Tuple2(descNullsLast(Ordering.Double.TotalOrdering), Ordering.String))
    local(store, ranked.map { case (e, avg, n) => Row(e, avg.map(Double.box).orNull, n) },
      StructField("estimator", StringType), StructField("avg_score", DoubleType),
      StructField("uses", LongType, nullable = false))
  }
}
