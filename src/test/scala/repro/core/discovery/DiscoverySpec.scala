package repro.core.discovery

import repro.{Oracle, SparkSpec}
import repro.core.graph.Lids
import repro.core.profile.DataProfiler
import repro.data.LakeBench

/** Union/join discovery and the pre-defined operations over a small
  * synthetic lake with known ground truth.
  */
class DiscoverySpec extends SparkSpec {
  import spark.implicits._

  private lazy val lake = LakeBench.generate(
    LakeBench.Spec("disco", nFamilies = 4, partitionsPerFamily = 3, baseRows = 150,
                   colsMin = 5, colsMax = 7, hard = false, nQuery = 4, seed = 42))

  /** The lake preprocessed as the Table 2 harness does it; the oracles
    * read the store's own triples.
    */
  private lazy val prepared = KglidsDiscovery.preprocessCells(spark, lake.cells(spark))
  private lazy val store    = prepared.store
  private lazy val index    = prepared.index
  private def triples       = store.triples.toDF()

  private def tid(t: String) = s"${lake.name}/$t"

  test("top-k unionable recovers the ground-truth family") {
    val q   = lake.queryTables.head
    val got = UnionSearch.topKUnionable(index, tid(q), 2).map(_._1).toSet
    val gt  = lake.unionableGroundTruth(q).map(tid)
    assert(got == gt, s"expected $gt got $got")
  }
  test("preprocessing runs only the Spark jobs of profiling") {
    val cells     = lake.cells(spark)
    val profiling = sparkJobsOf(DataProfiler.profileCells(spark, cells).collect())
    val preparing = sparkJobsOf(KglidsDiscovery.preprocessCells(spark, cells))
    assert(profiling > 0 && preparing == profiling, s"$preparing jobs, profiling alone $profiling")
  }
  test("unionable scores are in (0, 1] and sorted descending") {
    val res = UnionSearch.topKUnionable(index, tid(lake.queryTables.head), 10)
    assert(res.nonEmpty)
    assert(res.forall { case (_, s) => s > 0 && s <= 1.0 + 1e-9 })
    assert(res.map(_._2) == res.map(_._2).sorted.reverse)
  }
  test("ground-truth family ranks above other families for every query") {
    lake.queryTables.foreach { q =>
      val gt  = lake.unionableGroundTruth(q).map(tid)
      val res = UnionSearch.topKUnionable(index, tid(q), lake.tables.size)
      val topGt = res.take(gt.size).map(_._1).toSet
      assert((topGt intersect gt).nonEmpty, s"family of $q must appear at the top")
    }
  }
  test("unionable scores match the DuckDB oracle") {
    val q   = tid(lake.queryTables.head)
    val got = UnionSearch.topKUnionable(index, q, lake.tables.size)
    assert(got.nonEmpty)
    // score = Σ over the query's columns of the best label/content
    // similarity to a column of the candidate, / number of query columns
    Oracle.assertEquivalent(got.toDF("table_id", "score"),
      s"""WITH q AS (SELECT DISTINCT subject AS c FROM triples
         |           WHERE predicate = '${Lids.Prop.IsPartOf}'
         |             AND obj = '${Lids.ResourcePrefix}$q'),
         |best AS (SELECT m.subject AS c, t.obj AS t2, MAX(CAST(m.weight AS DOUBLE)) AS w
         |         FROM triples m JOIN triples t
         |           ON t.subject = m.obj AND t.predicate = '${Lids.Prop.IsPartOf}'
         |         WHERE m.predicate IN ('${Lids.Prop.LabelSimilarity}',
         |                               '${Lids.Prop.ContentSimilarity}')
         |           AND m.subject IN (SELECT c FROM q)
         |         GROUP BY m.subject, t.obj)
         |SELECT replace(t2, '${Lids.ResourcePrefix}', '') AS table_id,
         |       SUM(w) / (SELECT COUNT(*) FROM q) AS score
         |FROM best GROUP BY t2""".stripMargin,
      "triples" -> triples)
  }
  test("joinable tables share content-similar columns") {
    val q   = lake.queryTables.head
    val res = JoinSearch.topKJoinable(store, tid(q), 5)
    assert(res.nonEmpty)
    assert(res.forall(_._2 > 0))
  }
  test("join paths within the family exist and respect hop budget") {
    val q  = lake.queryTables.head
    val gt = lake.unionableGroundTruth(q).toSeq.sorted
    val paths = JoinSearch.joinPaths(store, tid(q), tid(gt.head), hops = 2)
    assert(paths.nonEmpty)
    assert(paths.forall(_.size <= 3))
    assert(paths.forall(p => p.head == tid(q) && p.last == tid(gt.head)))
  }
  test("shortest path is minimal") {
    val q  = lake.queryTables.head
    val gt = lake.unionableGroundTruth(q).toSeq.sorted
    val sp = JoinSearch.shortestPath(store, tid(q), tid(gt.head))
    assert(sp.isDefined)
    assert(sp.get.size == 2) // directly joinable (same family)
  }
  test("searchTables finds tables by column keyword groups") {
    val q       = lake.tables.find(_.name == lake.queryTables.head).get
    val keyword = q.columns.head.split('_').last
    val res = PredefinedOps.searchTables(store, Seq(Seq(keyword))).collect()
    assert(res.nonEmpty)
    assert(res.map(_.getString(0)).contains(tid(q.name)))
  }
  test("searchTables with an impossible conjunction is empty") {
    assert(PredefinedOps.searchTables(store,
      Seq(Seq("zzzz_not_a_column"))).collect().isEmpty)
  }
  test("findUnionableColumns returns matched pairs for family tables") {
    val q  = lake.queryTables.head
    val gt = lake.unionableGroundTruth(q).toSeq.sorted
    val pairs = PredefinedOps.findUnionableColumns(store, tid(q), tid(gt.head)).collect()
    assert(pairs.nonEmpty)
    assert(pairs.forall(_.getDouble(2) > 0))
  }

  private val P = Lids.ResourcePrefix

  test("searchTables matches the DuckDB oracle and sorts by table_id") {
    val q  = lake.tables.find(_.name == lake.queryTables.head).get
    val kw = q.columns.map(_.split('_').last.toLowerCase)
    val other = lake.tables.find(_.name != q.name).get.columns.head.split('_').last.toLowerCase
    val groups = Seq(Seq(kw(0), other), Seq(kw(1)))
    val got = PredefinedOps.searchTables(store, groups)
    val ids = got.collect().map(_.getString(0)).toSeq
    assert(ids.contains(tid(q.name)))
    assert(ids == ids.sorted)
    // a table matches a group when its IRI or a column label, lowercased,
    // contains one of the group's keywords
    val having = groups.map(g =>
      g.map(k => s"contains(hay, '$k')").mkString("bool_or(", " OR ", ")")).mkString(" AND ")
    Oracle.assertEquivalent(got,
      s"""WITH l AS (SELECT p.obj AS t, lower(p.obj || ' ' || l.obj) AS hay
         |           FROM triples p
         |           JOIN triples ty ON ty.subject = p.obj AND ty.predicate = '${Lids.Prop.RdfType}'
         |                          AND ty.obj = '${Lids.Cls.Table}'
         |           JOIN triples l ON l.subject = p.subject AND l.predicate = '${Lids.Prop.HasLabel}'
         |           WHERE p.predicate = '${Lids.Prop.IsPartOf}')
         |SELECT replace(t, '$P', '') AS table_id FROM l GROUP BY t HAVING $having""".stripMargin,
      "triples" -> triples)
  }
  test("findUnionableColumns matches the DuckDB oracle and sorts by score, column_1") {
    lake.queryTables.foreach { q =>
      val t2  = tid(lake.unionableGroundTruth(q).toSeq.sorted.head)
      val got = PredefinedOps.findUnionableColumns(store, tid(q), t2)
      val keys = got.collect().map(r => (-r.getDouble(2), r.getString(0))).toSeq
      assert(keys.nonEmpty)
      assert(keys == keys.sorted)
      Oracle.assertEquivalent(got,
        s"""SELECT replace(a.subject, '$P', '') AS column_1,
           |       replace(m.obj, '$P', '') AS column_2, CAST(m.weight AS DOUBLE) AS score
           |FROM triples a
           |JOIN triples m ON m.subject = a.subject AND m.predicate = '${Lids.Prop.LabelSimilarity}'
           |JOIN triples b ON b.subject = m.obj AND b.predicate = '${Lids.Prop.IsPartOf}'
           |               AND b.obj = '$P$t2'
           |WHERE a.predicate = '${Lids.Prop.IsPartOf}' AND a.obj = '$P${tid(q)}'""".stripMargin,
        "triples" -> triples)
    }
  }
  test("topKJoinable equals the joinable adjacency for every table") {
    val adj = JoinSearch.joinableAdjacency(store)
    for (t <- lake.tables.map(t => tid(t.name)); k <- Seq(1, 3, 10))
      assert(JoinSearch.topKJoinable(store, t, k) == adj.getOrElse(t, Nil).take(k), s"$t, k = $k")
  }
}
