package repro.core.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.graph.SchemaBuilder
import repro.core.profile.DataProfiler
import repro.substrate.rdf.{LocalGraphIndex, TripleStore}

/** KGLiDS as a data-discovery *system* for the Table 2 harness:
  * `preprocessCells` is the offline phase (Spark profiling, then on the
  * driver Alg. 3 schema → triple store → load into the serving index,
  * the GraphDB analogue), at the default similarity thresholds;
  * `queryUnionable` is the online top-k query.
  */
object KglidsDiscovery {

  /** The system state after preprocessing a lake. `index` is
    * `store.index`; the benchmark's traced lake preprocessing builds
    * the pair from its own spans.
    */
  case class Prepared(store: TripleStore, index: LocalGraphIndex)

  /** Preprocess from a pre-materialized cells DataFrame — the Table 2
    * harness stages the synthetic data once outside the timed section
    * (the baselines also receive the generated lake for free). Profiling
    * is the only Spark work: Alg. 3, the store and its index are built on
    * the driver from the collected profiles.
    */
  def preprocessCells(spark: SparkSession, cells: DataFrame): Prepared = {
    val profiles = DataProfiler.profileCells(spark, cells).collect().toSeq
    val store    = TripleStore(spark, SchemaBuilder.triples(profiles))
    Prepared(store, store.index)
  }

  /** Online top-k unionable-table query (tableId = "<lake>/<table>"). */
  def queryUnionable(p: Prepared, tableId: String, k: Int): Seq[(String, Double)] =
    UnionSearch.topKUnionable(p.index, tableId, k)
}
