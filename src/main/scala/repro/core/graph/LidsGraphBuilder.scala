package repro.core.graph

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.{PipelineAbstraction, ScriptRecord}
import repro.core.profile.ColumnProfile
import repro.substrate.rdf.{Triple, TripleStore}

/** Assembles the full LiDS graph (§3.3): the data global schema from
  * column profiles (Alg. 3, on the driver), one named graph per
  * abstracted pipeline (Alg. 1), the shared library graph, with
  * pipeline→dataset links verified by the [[GraphLinker]].
  */
object LidsGraphBuilder {

  /** Full LiDS graph: datasets ∪ pipelines ∪ libraries, linked; the
    * schema's triples come first, then the linked pipelines' in the
    * order they are collected.
    */
  def build(spark: SparkSession, profiles: Dataset[ColumnProfile],
            scripts: Dataset[ScriptRecord],
            th: SchemaBuilder.Thresholds = SchemaBuilder.Thresholds()): TripleStore =
    TripleStore(spark, SchemaBuilder.triples(profiles.collect().toSeq, th) ++
      pipelines(spark, profiles, scripts).collect())

  /** The triples of [[build]]'s store, as a Dataset. */
  def graph(spark: SparkSession, profiles: Dataset[ColumnProfile],
            scripts: Dataset[ScriptRecord],
            th: SchemaBuilder.Thresholds = SchemaBuilder.Thresholds()): Dataset[Triple] =
    SchemaBuilder.build(spark, profiles, th).union(pipelines(spark, profiles, scripts))

  /** The abstracted pipelines, linked to the profiled columns. */
  private def pipelines(spark: SparkSession, profiles: Dataset[ColumnProfile],
                        scripts: Dataset[ScriptRecord]): Dataset[Triple] =
    GraphLinker.link(spark, PipelineAbstraction.abstractCorpus(spark, scripts), profiles)
}
