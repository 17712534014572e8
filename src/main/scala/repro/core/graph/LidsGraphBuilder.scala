package repro.core.graph

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.{PipelineAbstraction, ScriptRecord}
import repro.core.profile.ColumnProfile
import repro.substrate.rdf.{Triple, TripleStore}

/** Assembles the full LiDS graph (§3.3): the data global schema from
  * column profiles (Alg. 3), one named graph per abstracted pipeline
  * (Alg. 1), the shared library graph, with pipeline→dataset links
  * verified by the [[GraphLinker]].
  */
object LidsGraphBuilder {

  /** Dataset graph only (no pipelines). */
  def buildDatasetGraph(spark: SparkSession, profiles: Dataset[ColumnProfile],
                        th: SchemaBuilder.Thresholds = SchemaBuilder.Thresholds()): TripleStore =
    TripleStore.fromDataset(SchemaBuilder.build(spark, profiles, th))

  /** Full LiDS graph: datasets ∪ pipelines ∪ libraries, linked. */
  def build(spark: SparkSession, profiles: Dataset[ColumnProfile],
            scripts: Dataset[ScriptRecord],
            th: SchemaBuilder.Thresholds = SchemaBuilder.Thresholds()): TripleStore =
    TripleStore.fromDataset(graph(spark, profiles, scripts, th))

  /** The triples of the full LiDS graph, from which [[build]] collects
    * its store.
    */
  def graph(spark: SparkSession, profiles: Dataset[ColumnProfile],
            scripts: Dataset[ScriptRecord],
            th: SchemaBuilder.Thresholds = SchemaBuilder.Thresholds()): Dataset[Triple] = {
    val datasetGraph   = SchemaBuilder.build(spark, profiles, th)
    val pipelineGraphs = PipelineAbstraction.abstractCorpus(spark, scripts)
    datasetGraph.union(GraphLinker.link(spark, pipelineGraphs, profiles))
  }
}
