package repro.core.pipeline

import org.apache.spark.sql.Dataset

import repro.{Oracle, SparkSpec}
import repro.data.PipelineCorpus
import repro.substrate.baselines.GraphGen4Code
import repro.substrate.rdf.{Triple, TripleStore}

/** The whole-graph counts of Tables 3 and 4, computed from a store's
  * triple array, against DuckDB SQL over the Dataset the store was
  * collected from, on both systems' graphs of one corpus.
  */
class GraphCountsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val corpus =
    spark.createDataset(PipelineCorpus.abstractionCorpus(30, seed = 5)).cache()

  /** `graph` with about an eighth of its triples repeated; the store
    * collects it once and DuckDB reads it again, so both see the rows of
    * the same deterministic plan.
    */
  private def countsMatchDuckDb(graph: Dataset[Triple]): Unit = {
    val g = graph.union(graph.filter(t => (t.subject.hashCode & 7) == 0))
    val store = TripleStore.fromDataset(g)
    assert(store.size > g.distinct().count(), "the graph must hold duplicate triples")
    Oracle.assertEquivalent(
      Seq((store.size, store.nodeCount, store.predicateCount, store.approxSerializedBytes))
        .toDF("size", "nodes", "predicates", "bytes"),
      """SELECT COUNT(*) AS size,
        |       (SELECT COUNT(*) FROM (SELECT subject FROM triples
        |                              UNION SELECT obj FROM triples)) AS nodes,
        |       COUNT(DISTINCT predicate) AS predicates,
        |       SUM(length(graph) + length(subject) + length(predicate) + length(obj) + 16) AS bytes
        |FROM triples""".stripMargin,
      "triples" -> g.toDF())
    Oracle.assertEquivalent(store.countByPredicate().toSeq.toDF("predicate", "n"),
      "SELECT predicate, COUNT(*) AS n FROM triples GROUP BY predicate",
      "triples" -> g.toDF())
  }

  test("KGLiDS graph counts match DuckDB, duplicates included") {
    countsMatchDuckDb(PipelineAbstraction.abstractCorpus(spark, corpus))
  }
  test("GraphGen4Code graph counts match DuckDB, duplicates included") {
    countsMatchDuckDb(GraphGen4Code.abstractCorpus(spark, corpus))
  }
}
