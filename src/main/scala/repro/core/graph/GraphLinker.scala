package repro.core.graph

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.profile.ColumnProfile
import repro.substrate.rdf.Triple

/** The Global Graph Linker (§3.1, "Predicting Dataset Usage and Graph
  * Linker", phase 2).
  *
  * Dataset-usage analysis only *predicts* table/column reads; not every
  * prediction exists in the raw data (e.g. the user-defined
  * `NormalizedAge` column in Fig. 3). The linker verifies each predicted
  * `readsTable` / `readsColumn` edge against the Data Global Schema and
  * drops edges whose target has no matching node: the profiles' table
  * and column IRIs are collected once into driver sets, and one narrow
  * filter keeps every other triple and every read of a known node.
  */
object GraphLinker {

  def link(spark: SparkSession, pipelineTriples: Dataset[Triple],
           profiles: Dataset[ColumnProfile]): Dataset[Triple] = {
    import spark.implicits._
    val names = profiles.select("datasetName", "tableName", "columnName")
      .as[(String, String, String)].collect()
    val tables  = names.map { case (d, t, _) => Lids.tableUri(d, t) }.toSet
    val columns = names.map { case (d, t, c) => Lids.columnUri(d, t, c) }.toSet
    pipelineTriples.filter { t =>
      t.predicate match {
        case Lids.Prop.ReadsTable  => tables(t.obj)
        case Lids.Prop.ReadsColumn => columns(t.obj)
        case _                     => true
      }
    }
  }
}
