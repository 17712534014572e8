package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.graph.Lids
import repro.substrate.rdf.{Term, TriplePattern, TripleStore}

/** The KGLiDS Interfaces pre-defined operations (§5), each compiled to
  * BGP queries over the LiDS graph and returned as a DataFrame (the
  * paper returns Pandas DataFrames).
  */
object PredefinedOps {

  /** `search_tables_based_on_specific_columns`: AND across groups, OR
    * within a group; keywords match table or column labels
    * (case-insensitive substring).
    */
  def searchTables(store: TripleStore, andGroups: Seq[Seq[String]]): DataFrame = {
    val labels = store.select(Seq(
      TriplePattern(Term("?c"), Term.Lit(Lids.Prop.IsPartOf), Term("?t")),
      TriplePattern(Term("?t"), Term.Lit(Lids.Prop.RdfType), Term.Lit(Lids.Cls.Table)),
      TriplePattern(Term("?c"), Term.Lit(Lids.Prop.HasLabel), Term("?clabel")),
    )).withColumn("hay", lower(concat_ws(" ", col("t"), col("clabel"))))

    val perTable = labels.groupBy("t")
      .agg(concat_ws(" ", collect_list("hay")).as("hay"))
    val matched = andGroups.foldLeft(perTable) { (d, group) =>
      val anyOf = group.map(kw => col("hay").contains(kw.toLowerCase))
        .reduce(_ || _)
      d.filter(anyOf)
    }
    matched.select(
      regexp_replace(col("t"), Lids.ResourcePrefix, "").as("table_id")
    ).orderBy("table_id")
  }

  /** `find_unionable_columns(t1, t2)`: matched (unionable) column pairs
    * between two tables — the recommended merged schema.
    */
  def findUnionableColumns(store: TripleStore, tableId1: String,
                           tableId2: String): DataFrame = {
    val t1 = Lids.ResourcePrefix + tableId1
    val t2 = Lids.ResourcePrefix + tableId2
    store.select(Seq(
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(t1)),
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.LabelSimilarity), Term("?c2"),
                    weightVar = Some("score")),
      TriplePattern(Term("?c2"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(t2)),
    )).select(
      regexp_replace(col("c1"), Lids.ResourcePrefix, "").as("column_1"),
      regexp_replace(col("c2"), Lids.ResourcePrefix, "").as("column_2"),
      col("score"),
    ).orderBy(desc("score"), col("column_1"))
  }

  /** `get_top_k_library_used(k)`: libraries ranked by the number of
    * unique pipelines calling them (Fig. 4's query).
    */
  def getTopKLibraryUsed(store: TripleStore, k: Int): DataFrame = {
    store.select(Seq(
      TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term("?f"),
                    graph = Some(Term.Var("g"))),
    ))
      .withColumn("library",
        // root library = first path segment after …/library/
        regexp_extract(col("f"), "library/([^/]+)", 1))
      .filter(col("library") =!= "")
      .select("library", "g").distinct()
      .groupBy("library").agg(countDistinct("g").as("pipelines"))
      .orderBy(desc("pipelines"), col("library"))
      .limit(k)
  }

  /** `get_pipelines_calling_libraries(paths…)`: pipelines whose named
    * graph calls every given dotted library path, with metadata.
    */
  def getPipelinesCallingLibraries(store: TripleStore, paths: Seq[String]): DataFrame = {
    require(paths.nonEmpty)
    val pipelines = paths.map { p =>
      store.index.select(Seq(
        TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction),
                      Term.Lit(Lids.libraryUri(p)), graph = Some(Term.Var("g"))),
      )).map(_.getAs[String]("g")).toSet
    }.reduce(_ intersect _)
    val meta = store.select(Seq(
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.IsWrittenBy), Term("?author"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.HasVotes), Term("?votes"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.AboutDataset), Term("?dataset"),
                    graph = Some(Term.Var("g"))),
    ))
    meta.filter(col("g").isin(pipelines.toSeq: _*))
      .select(
        regexp_replace(col("p"), Lids.ResourcePrefix, "").as("pipeline"),
        col("author"),
        col("votes").cast("int").as("votes"),
        regexp_replace(col("dataset"), Lids.ResourcePrefix, "").as("dataset"),
      ).orderBy(desc("votes"), col("pipeline"))
  }

  /** `recommend_ml_models(dataset)`: estimators used on a dataset's
    * pipelines with the pipeline score — the classifier-recommendation
    * query of §5.
    */
  def recommendMlModels(store: TripleStore, dataset: String,
                        estimators: Seq[String]): DataFrame = {
    val estimatorUris = estimators.map(Lids.libraryUri)
    val rows = store.select(Seq(
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.AboutDataset),
                    Term.Lit(Lids.datasetUri(dataset)), graph = Some(Term.Var("g"))),
      TriplePattern(Term("?p"), Term.Lit(Lids.Prop.HasScore), Term("?score"),
                    graph = Some(Term.Var("g"))),
      TriplePattern(Term("?s"), Term.Lit(Lids.Prop.CallsFunction), Term("?f"),
                    graph = Some(Term.Var("g"))),
    ))
    rows.filter(col("f").isin(estimatorUris: _*))
      .select(
        regexp_replace(col("f"), Lids.ResourcePrefix + "library/", "").as("estimator"),
        col("score").cast("double").as("score"),
      )
      .groupBy("estimator")
      .agg(avg("score").as("avg_score"), count(lit(1)).as("uses"))
      .orderBy(desc("avg_score"), col("estimator"))
  }
}
