package repro.substrate.rdf

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop}

import repro.{Oracle, PropSpec, SparkSpec}

/** Triple store + BGP evaluator tests, oracle-checked against DuckDB SQL
  * self-joins over the same triple table.
  */
class RdfSpec extends SparkSpec with PropSpec {
  import spark.implicits._

  private lazy val triples = Seq(
    Triple("g0", "c1", "partOf", "t1"),
    Triple("g0", "c2", "partOf", "t1"),
    Triple("g0", "c3", "partOf", "t2"),
    Triple("g0", "c4", "partOf", "t2"),
    Triple("g0", "c1", "similar", "c3", 0.9),
    Triple("g0", "c3", "similar", "c1", 0.9),
    Triple("g0", "c2", "similar", "c4", 0.7),
    Triple("g0", "c4", "similar", "c2", 0.7),
    Triple("g0", "t1", "type", "Table"),
    Triple("g0", "t2", "type", "Table"),
    Triple("p1", "s1", "calls", "pandas.read_csv"),
    Triple("p1", "s1", "next", "s2"),
    Triple("p1", "s2", "calls", "sklearn.fit"),
    Triple("p2", "s1", "calls", "pandas.read_csv"),
  )
  private lazy val store = TripleStore(spark, triples)

  private def triplesDf = triples.toDF()

  /** A BGP's rows from the store's index as a DataFrame, for the oracle. */
  private def bgpDf(s: TripleStore, bgp: Seq[TriplePattern]): DataFrame =
    spark.createDataFrame(s.index.select(bgp).asJava, LocalGraphIndex.schemaOf(bgp))

  test("size counts triples") { assert(store.size == triples.size) }

  test("nodeCount counts distinct subjects and objects") {
    // subjects ∪ objects
    val expected = (triples.map(_.subject) ++ triples.map(_.obj)).distinct.size
    assert(store.nodeCount == expected)
  }

  test("predicateCount and countByPredicate") {
    assert(store.predicateCount == 5)
    val byP = store.countByPredicate()
    assert(byP("partOf") == 4 && byP("similar") == 4 && byP("calls") == 3)
  }

  test("single-pattern query with literal predicate (oracle)") {
    val got = bgpDf(store, Seq(TriplePattern("?c", "partOf", "?t")))
      .select($"c", $"t")
    Oracle.assertEquivalent(got,
      "SELECT subject AS c, obj AS t FROM triples WHERE predicate = 'partOf'",
      "triples" -> triplesDf)
  }

  test("two-pattern join on shared variable (oracle)") {
    val got = bgpDf(store, Seq(
      TriplePattern("?c1", "similar", "?c2"),
      TriplePattern("?c2", "partOf", "?t"),
    )).select($"c1", $"c2", $"t")
    Oracle.assertEquivalent(got,
      """SELECT a.subject AS c1, a.obj AS c2, b.obj AS t
        |FROM triples a JOIN triples b ON a.obj = b.subject
        |WHERE a.predicate = 'similar' AND b.predicate = 'partOf'""".stripMargin,
      "triples" -> triplesDf)
  }

  test("three-pattern chain (oracle)") {
    val got = bgpDf(store, Seq(
      TriplePattern("?c1", "partOf", "?t1"),
      TriplePattern("?c1", "similar", "?c2"),
      TriplePattern("?c2", "partOf", "?t2"),
    )).select($"c1", $"t1", $"c2", $"t2")
    Oracle.assertEquivalent(got,
      """SELECT a.subject AS c1, a.obj AS t1, b.obj AS c2, c.obj AS t2
        |FROM triples a
        |JOIN triples b ON a.subject = b.subject AND b.predicate = 'similar'
        |JOIN triples c ON b.obj = c.subject AND c.predicate = 'partOf'
        |WHERE a.predicate = 'partOf'""".stripMargin,
      "triples" -> triplesDf)
  }

  test("literal subject and object push-down") {
    val rows = store.index.select(Seq(TriplePattern("c1", "similar", "?x")))
    assert(rows.map(_.getString(0)) == Seq("c3"))
  }

  test("named-graph constraint") {
    val inP1 = store.index.select(Seq(
      TriplePattern(Term("?s"), Term.Lit("calls"), Term("?f"),
                    graph = Some(Term.Lit("p1")))))
    assert(inP1.size == 2)
    val allGraphs = store.index.select(Seq(
      TriplePattern(Term("?s"), Term.Lit("calls"), Term("?f"),
                    graph = Some(Term.Var("g")))))
    assert(allGraphs.map(_.getAs[String]("g")).distinct.size == 2)
  }

  test("weight binding (RDF-star annotation)") {
    val rows = store.index.select(Seq(
      TriplePattern.weighted("?c1", "similar", "?c2", "?w")))
      .filter(_.getAs[Double]("w") > 0.8)
    assert(rows.size == 2)
  }

  test("cross-join when patterns share no variables") {
    val rows = store.index.select(Seq(
      TriplePattern("?t", "type", "Table"),
      TriplePattern("?s", "calls", "pandas.read_csv"),
    ))
    assert(rows.size == 4) // 2 tables × 2 statements
  }

  test("empty BGP is rejected") {
    intercept[IllegalArgumentException] { store.index.select(Seq.empty) }
  }

  test("approxSerializedBytes is positive and grows") {
    val b = store.approxSerializedBytes
    assert(b > 0)
    assert(TripleStore(spark, triples ++ triples).approxSerializedBytes == 2 * b)
    assert(TripleStore(spark, triples :+ Triple("g9", "x", "p", "y")).approxSerializedBytes ==
      b + "g9xpy".length + 16)
  }

  test("fromDataset equals the local store in order, each distinct string one instance") {
    // every triple, the first 3 (4 of 7 partitions empty) and none
    Seq(triples, triples.take(3), Nil).foreach { ts =>
      val rddBacked = spark.createDataset(spark.sparkContext.parallelize(ts, 7))
      // a column filter keeps the encoded rows, so `.rdd` must decode them
      Seq(rddBacked, rddBacked.filter($"weight" > 0.0)).foreach { ds =>
        val s = TripleStore.fromDataset(ds)
        assert(s.triples == TripleStore(spark, ts).triples)
        val canon = mutable.HashMap.empty[String, String]
        assert(s.triples.iterator.flatMap(t => Iterator(t.graph, t.subject, t.predicate, t.obj))
          .forall(x => canon.getOrElseUpdate(x, x) eq x), "equal strings must be one instance")
      }
    }
  }

  test("local index agrees with the store") {
    val idx = LocalGraphIndex.fromStore(store)
    assert(idx eq store.index)
    def rows(p: TriplePattern) = idx.select(Seq(p)).map(_.toSeq)
    assert(rows(TriplePattern.weighted("c1", "similar", "?o", "?w")) == Seq(Seq("c3", 0.9)))
    assert(rows(TriplePattern.weighted("?c", "partOf", "?t", "?w")).toSet ==
      Set(Seq("c1", "t1", 1.0), Seq("c2", "t1", 1.0), Seq("c3", "t2", 1.0), Seq("c4", "t2", 1.0)))
    assert(rows(TriplePattern("?t", "type", "?cls")).map(_.head).toSet == Set("t1", "t2"))
    assert(rows(TriplePattern.weighted("nope", "similar", "?o", "?w")).isEmpty)
  }

  // ----------------------------------------- differential property (DuckDB)
  // Few nodes, so that joins hit; "g1" is a node and a graph, "a" a node
  // and a predicate, so that a variable can join across positions.
  private val nodes  = Seq("a", "b", "c", "g1")
  private val preds  = Seq("p", "q", "a")
  private val graphs = Seq("g0", "g1", "g2")

  private val genTriples: Gen[Seq[Triple]] = for {
    n  <- Gen.choose(1, 14)
    ts <- Gen.listOfN(n, for {
            g <- Gen.oneOf(graphs); s <- Gen.oneOf(nodes); p <- Gen.oneOf(preds)
            o <- Gen.oneOf(nodes); w <- Gen.oneOf(0.25, 0.5, 1.0)
          } yield Triple(g, s, p, o, w))
    dups <- Gen.someOf(ts)
  } yield ts ++ dups

  private def genTerm(lits: Seq[String]): Gen[Term] =
    Gen.oneOf(Gen.oneOf(lits).map(Term.Lit(_)), Gen.oneOf("x", "y", "z").map(Term.Var(_)))

  /** Weight variable `v` may recur across patterns, `w<i>` may not. */
  private def genPattern(i: Int): Gen[TriplePattern] = for {
    s <- genTerm(nodes); p <- genTerm(preds); o <- genTerm(nodes)
    g <- Gen.option(genTerm(graphs))
    w <- Gen.option(Gen.oneOf("v", s"w$i"))
  } yield TriplePattern(s, p, o, g, w)

  private val genBgp: Gen[Seq[TriplePattern]] =
    Gen.choose(1, 4).flatMap(n => Gen.sequence[Seq[TriplePattern], TriplePattern]((0 until n).map(genPattern)))

  /** A BGP as a SQL self-join over `triples`: one alias per pattern, a
    * variable selected from the column that binds it first and equated
    * to every later occurrence.
    */
  private def bgpSql(bgp: Seq[TriplePattern]): String = {
    val first = mutable.LinkedHashMap.empty[String, String]
    val conds = mutable.ArrayBuffer.empty[String]
    def term(column: String, t: Term): Unit = t match {
      case Term.Lit(v) => conds += s"$column = '$v'"
      case Term.Var(n) => first.get(n).fold[Unit](first(n) = column)(c => conds += s"$column = $c")
    }
    bgp.zipWithIndex.foreach { case (p, i) =>
      term(s"t$i.subject", p.s); term(s"t$i.predicate", p.p); term(s"t$i.obj", p.o)
      p.graph.foreach(term(s"t$i.graph", _))
      p.weightVar.foreach(w => term(s"t$i.weight", Term.Var(w)))
    }
    val select = first.map { case (n, c) =>
      if (c.endsWith(".weight")) s"CAST($c AS DOUBLE) AS $n" else s"$c AS $n"
    }
    s"SELECT ${select.mkString(", ")} FROM ${bgp.indices.map(i => s"triples t$i").mkString(", ")}" +
      (if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", ""))
  }

  test("random BGPs agree with DuckDB self-joins (property)") {
    var compared = 0
    checkProp(Prop.forAllNoShrink(genTriples, genBgp) { (ts, bgp) =>
      val s = TripleStore(spark, ts) // no Spark job per case
      val bindsNothing = bgp.exists(p =>
        p.weightVar.isEmpty && !(Seq(p.s, p.p, p.o) ++ p.graph).exists(_.isInstanceOf[Term.Var]))
      if (bindsNothing) {
        intercept[IllegalArgumentException](s.index.select(bgp))
      } else {
        Oracle.assertEquivalent(bgpDf(s, bgp), bgpSql(bgp), "triples" -> ts.toDF())
        compared += 1
      }
      true
    }, minTests = 300)
    assert(compared >= 200, s"only $compared BGPs compared")
  }
}
