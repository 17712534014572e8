package repro.core.graph

import repro.{Oracle, SparkSpec}
import repro.core.embed.EmbeddingOps
import repro.core.profile.{ColumnProfile, DataProfiler, FineGrainedType}
import repro.data.LakeBench
import repro.substrate.rdf.{Triple, TripleStore}

/** Data Global Schema construction (Alg. 3). */
class SchemaBuilderSpec extends SparkSpec {
  import spark.implicits._

  // two unionable tables (same archetypes, shared values) + one unrelated
  private lazy val t1 = Seq(
    ("Canada", 10.5, true, "great product quality"),
    ("France", 11.0, true, "really good value"),
    ("Japan", 9.75, false, "bad quality terrible"),
    ("Brazil", 10.25, true, "love this product"),
  ).toDF("country", "price", "in_stock", "review")

  private lazy val t2 = Seq(
    ("Canada", 10.4, true, "good product overall"),
    ("Japan", 10.9, true, "terrible would avoid"),
    ("Spain", 9.5, false, "great quality nice"),
  ).toDF("nation", "cost", "in_stock", "review_text")

  private lazy val t3 = Seq(
    ("PRD-1", "2020-01-01", 170.0),
    ("PRD-2", "2020-02-01", 180.5),
    ("PRD-3", "2020-03-01", 160.25),
  ).toDF("sku", "listed_on", "height_cm")

  private lazy val profiles = DataProfiler.profileCells(spark,
    DataProfiler.cellsOf(spark, "lake", "t1", t1)
      .union(DataProfiler.cellsOf(spark, "lake", "t2", t2))
      .union(DataProfiler.cellsOf(spark, "lake", "t3", t3))).cache()

  private lazy val collected = profiles.collect().toSeq
  private lazy val th = SchemaBuilder.Thresholds(alpha = 0.8, beta = 0.9, theta = 0.35)
  private lazy val metadata = SchemaBuilder.metadata(collected)
  private lazy val sims     = SchemaBuilder.similarities(collected, th)

  test("metadata graph has type triples for dataset, tables, columns") {
    assert(metadata.count(t => t.predicate == Lids.Prop.RdfType && t.obj == Lids.Cls.Dataset) == 1)
    assert(metadata.count(t => t.predicate == Lids.Prop.RdfType && t.obj == Lids.Cls.Table) == 3)
    assert(metadata.count(t => t.predicate == Lids.Prop.RdfType && t.obj == Lids.Cls.Column) == 11)
  }
  test("metadata graph hierarchy: every column isPartOf its table (oracle)") {
    val got = spark.createDataFrame(metadata
      .filter(t => t.predicate == Lids.Prop.IsPartOf && t.subject.count(_ == '/') > 5)
      .map(t => (t.subject, t.obj))).toDF("col_uri", "table_uri")
    val cols = spark.createDataFrame(Seq(
      "t1/country", "t1/price", "t1/in_stock", "t1/review",
      "t2/nation", "t2/cost", "t2/in_stock", "t2/review_text",
      "t3/sku", "t3/listed_on", "t3/height_cm").map(c => Tuple1(c))).toDF("c")
    Oracle.assertEquivalent(got,
      s"""SELECT 'http://kglids.org/resource/lake/' || c AS col_uri,
         |'http://kglids.org/resource/lake/' ||
         |  substr(c, 1, instr(c, '/') - 1) AS table_uri FROM cols""".stripMargin,
      "cols" -> cols)
  }
  test("statistics triples carry exact missing counts") {
    val missing = metadata.filter(_.predicate == Lids.Prop.HasMissingCount)
    assert(missing.size == 11)
    assert(missing.forall(_.obj == "0"))
  }
  test("boolean columns carry a true-ratio triple") {
    assert(metadata.count(_.predicate == Lids.Prop.HasTrueRatio) == 2)
  }
  test("label similarity links synonym-renamed columns") {
    val labelEdges = sims.filter(_.predicate == Lids.Prop.LabelSimilarity)
    def has(a: String, b: String) = labelEdges.exists(t =>
      t.subject.endsWith(a) && t.obj.endsWith(b))
    assert(has("t1/country", "t2/nation"), "country≈nation (synonyms)")
    assert(has("t1/price", "t2/cost"), "price≈cost (synonyms)")
    assert(has("t1/in_stock", "t2/in_stock"), "identical labels")
  }
  test("content similarity links value-overlapping columns") {
    val contentEdges = sims.filter(_.predicate == Lids.Prop.ContentSimilarity)
    assert(contentEdges.exists(t =>
      t.subject.endsWith("t1/country") && t.obj.endsWith("t2/nation")))
  }
  test("no similarity edges within the same table") {
    def tableOf(uri: String) = uri.split('/').dropRight(1).mkString("/")
    assert(sims.forall(t => tableOf(t.subject) != tableOf(t.obj)))
  }
  test("no similarity edges across fine-grained types") {
    val typeOf = collected.map(p =>
      (Lids.ResourcePrefix + p.columnId) -> p.fgType).toMap
    assert(sims.forall(t => typeOf(t.subject) == typeOf(t.obj)))
  }
  test("unrelated table stays unlinked to label-similar edges") {
    assert(!sims.exists(t =>
      t.predicate == Lids.Prop.LabelSimilarity &&
        (t.subject.contains("/t3/") || t.obj.contains("/t3/"))))
  }
  test("edges are symmetric with equal weights") {
    val set = sims.map(t => (t.subject, t.predicate, t.obj, t.weight)).toSet
    assert(sims.forall(t => set.contains((t.obj, t.predicate, t.subject, t.weight))))
  }
  test("edge weights are genuine scores above thresholds") {
    assert(sims.filter(_.predicate == Lids.Prop.LabelSimilarity).forall(_.weight >= th.alpha))
    assert(sims.nonEmpty)
  }
  test("higher thresholds yield fewer edges (precision/recall lever)") {
    val strict = SchemaBuilder.similarities(collected,
      SchemaBuilder.Thresholds(alpha = 0.999, beta = 0.999, theta = 0.999))
    assert(strict.size < sims.size)
  }
  // ------------------------------------------- the kernel on a generated lake
  private lazy val lake = LakeBench.generate(
    LakeBench.Spec("alg3", nFamilies = 4, partitionsPerFamily = 3, baseRows = 150,
                   colsMin = 5, colsMax = 7, hard = false, nQuery = 4, seed = 42))
  private lazy val lakeProfilesDs = DataProfiler.profileCells(spark, lake.cells(spark)).cache()
  private lazy val lakeProfiles   = lakeProfilesDs.collect().toSeq

  /** The similarity edges as DuckDB computes them from the profiles:
    * every pair of same-type columns in different tables, scored by
    * cosine (dot product over the two sums of squares, 0 for a zero
    * vector) or, for booleans, 1 − |Δ trueRatio|.
    */
  private def oracleEdges(th: SchemaBuilder.Thresholds): Seq[(String, String, String, Double)] = {
    val cols = lakeProfiles.map(p => (p.columnId, p.tableId, p.fgType, p.trueRatio))
      .toDF("col_id", "table_id", "fg", "tr")
    val vecs = lakeProfiles.flatMap { p =>
      Seq("label" -> p.labelEmbedding, "content" -> p.embedding).map { case (kind, v) =>
        (p.columnId, kind, v.mkString("[", ", ", "]"))
      }
    }.toDF("col_id", "kind", "v")
    val (_, rows) = Oracle.rows(
      s"""WITH c AS (SELECT col_id, table_id, fg, CAST(tr AS DOUBLE) AS tr FROM cols),
         |v AS (SELECT col_id, kind, UNNEST(range(len(x))) AS i, UNNEST(x) AS x
         |      FROM (SELECT col_id, kind, CAST(v AS DOUBLE[]) AS x FROM vecs)),
         |pairs AS (SELECT a.col_id AS ca, b.col_id AS cb, a.fg, a.tr AS tra, b.tr AS trb
         |          FROM c a JOIN c b ON a.fg = b.fg AND a.table_id <> b.table_id
         |                           AND a.col_id < b.col_id),
         |sq AS (SELECT col_id, kind, sum(x * x) AS ss FROM v GROUP BY col_id, kind),
         |dots AS (SELECT p.ca, p.cb, va.kind, sum(va.x * vb.x) AS dot
         |         FROM pairs p JOIN v va ON va.col_id = p.ca
         |              JOIN v vb ON vb.col_id = p.cb AND vb.kind = va.kind AND vb.i = va.i
         |         GROUP BY p.ca, p.cb, va.kind),
         |cos AS (SELECT d.ca, d.cb, d.kind,
         |               CASE WHEN sa.ss = 0 OR sb.ss = 0 THEN 0.0
         |                    ELSE d.dot / sqrt(sa.ss * sb.ss) END AS s
         |        FROM dots d JOIN sq sa ON sa.col_id = d.ca AND sa.kind = d.kind
         |                    JOIN sq sb ON sb.col_id = d.cb AND sb.kind = d.kind),
         |edges AS (
         |  SELECT ca, cb, '${Lids.Prop.LabelSimilarity}' AS pred, s FROM cos
         |  WHERE kind = 'label' AND s >= ${th.alpha}
         |  UNION ALL
         |  SELECT cos.ca, cos.cb, '${Lids.Prop.ContentSimilarity}', cos.s
         |  FROM cos JOIN pairs p ON p.ca = cos.ca AND p.cb = cos.cb
         |  WHERE cos.kind = 'content' AND p.fg <> '${FineGrainedType.Boolean}'
         |    AND cos.s >= ${th.theta}
         |  UNION ALL
         |  SELECT ca, cb, '${Lids.Prop.ContentSimilarity}', 1.0 - abs(tra - trb) FROM pairs
         |  WHERE fg = '${FineGrainedType.Boolean}' AND 1.0 - abs(tra - trb) >= ${th.beta})
         |SELECT ca AS s, pred AS p, cb AS o, s AS w FROM edges
         |UNION ALL SELECT cb, pred, ca, s FROM edges""".stripMargin,
      "cols" -> cols, "vecs" -> vecs)
    rows.map(r => (Lids.ResourcePrefix + r.getString(0), r.getString(1),
                   Lids.ResourcePrefix + r.getString(2), r.get(3).toString.toDouble))
  }

  Seq("default" -> SchemaBuilder.Thresholds(),
      "loose" -> SchemaBuilder.Thresholds(alpha = 0.5, beta = 0.5, theta = 0.35)).foreach {
    case (name, lakeTh) =>
      test(s"similarity edges match the DuckDB oracle at $name thresholds") {
        def key(e: (String, String, String, Double)) = (e._1, e._2, e._3)
        val got = SchemaBuilder.similarities(lakeProfiles, lakeTh)
          .map(t => (t.subject, t.predicate, t.obj, t.weight)).sortBy(key)
        val exp = oracleEdges(lakeTh).sortBy(key)
        assert(got.nonEmpty)
        assert(got.map(key) == exp.map(key))
        val worst = got.zip(exp).map { case (g, e) => math.abs(g._4 - e._4) }.max
        assert(worst <= 1e-9, s"weights differ by up to $worst")
      }
  }
  test("edge weights are EmbeddingOps.cosine's, bit for bit") {
    val byUri = lakeProfiles.map(p => (Lids.ResourcePrefix + p.columnId) -> p).toMap
    val loose = SchemaBuilder.Thresholds(alpha = 0.5, beta = 0.5, theta = 0.35)
    SchemaBuilder.similarities(lakeProfiles, loose).foreach { t =>
      val (a, b) = (byUri(t.subject), byUri(t.obj))
      val expected =
        if (t.predicate == Lids.Prop.LabelSimilarity)
          EmbeddingOps.cosine(a.labelEmbedding, b.labelEmbedding)
        else if (a.fgType == FineGrainedType.Boolean) 1.0 - math.abs(a.trueRatio - b.trueRatio)
        else EmbeddingOps.cosine(a.embedding, b.embedding)
      assert(t.weight == expected, s"$t")
    }
  }
  test("dataset and table triples appear exactly once") {
    val meta = SchemaBuilder.metadata(lakeProfiles)
    assert(meta.distinct.size == meta.size)
    val ds = Lids.datasetUri(lake.name)
    assert(meta.count(_.subject == ds) == 2)
    lake.tables.foreach { t =>
      assert(meta.count(_.subject == Lids.tableUri(lake.name, t.name)) == 3, t.name)
    }
  }

  // ------------------------------------------------ kernel edge cases
  private def column(table: String, name: String, fgType: String = FineGrainedType.Float,
                     embedding: Array[Double] = Array(1.0, 2.0),
                     label: Array[Double] = Array(3.0, 1.0)) =
    ColumnProfile("d", table, name, fgType, 10, 10, 5, 0.0, 0, 0, 0, 0, embedding, label)
  private val anything = SchemaBuilder.Thresholds(alpha = 0.0, beta = 0.0, theta = 0.0)

  test("Alg. 3 of no profiles is empty") {
    assert(SchemaBuilder.triples(Nil).isEmpty)
  }
  test("a fine-grained type with a single column gets no edge") {
    val ps = Seq(column("t1", "a"), column("t2", "b", fgType = FineGrainedType.Int))
    assert(SchemaBuilder.similarities(ps, anything).isEmpty)
  }
  test("columns of one table are never paired") {
    val ps = Seq(column("t1", "a"), column("t1", "b"), column("t2", "c"))
    val edges = SchemaBuilder.similarities(ps, anything)
    def pair(t: Triple) = Set(t.subject, t.obj).map(_.split('/').dropRight(1).last)
    assert(edges.size == 8) // (a, c) and (b, c): label and content, both ways
    assert(edges.forall(pair(_) == Set("t1", "t2")))
  }
  test("an all-zero embedding scores 0") {
    val zero = column("t1", "a", embedding = Array(0.0, 0.0), label = Array(0.0, 0.0))
    val edges = SchemaBuilder.similarities(Seq(zero, column("t2", "b")), anything)
    assert(edges.size == 4 && edges.forall(_.weight == 0.0))
  }
  test("full build = metadata ∪ similarity, loadable as a triple store") {
    val store = TripleStore(spark, SchemaBuilder.triples(collected, th))
    assert(store.triples == metadata ++ sims)
    assert(store.countByPredicate().contains(Lids.Prop.IsPartOf))
  }
  test("the Dataset wrappers return the local functions' triples, in order") {
    val sims = SchemaBuilder.similarities(lakeProfiles)
    assert(sims.nonEmpty)
    assert(SchemaBuilder.metadataGraph(spark, lakeProfilesDs).collect().toSeq ==
      SchemaBuilder.metadata(lakeProfiles))
    assert(SchemaBuilder.similarityGraph(spark, lakeProfilesDs).collect().toSeq == sims)
  }
}
