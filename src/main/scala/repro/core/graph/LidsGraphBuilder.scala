package repro.core.graph

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.{PipelineAbstraction, ScriptRecord}
import repro.core.profile.ColumnProfile
import repro.substrate.rdf.TripleStore

/** Assembles the full LiDS graph (§3.3): the data global schema from
  * column profiles (Alg. 3, on the driver), one named graph per
  * abstracted pipeline (Alg. 1), the shared library graph, with
  * pipeline→dataset links verified by the [[GraphLinker]].
  */
object LidsGraphBuilder {

  /** Full LiDS graph: datasets ∪ pipelines ∪ libraries, linked. The
    * schema's triples come first, then the linked pipelines' in the
    * order they are collected; the GNN examples are extracted in this
    * order.
    */
  def build(spark: SparkSession, profiles: Dataset[ColumnProfile],
            scripts: Dataset[ScriptRecord]): TripleStore =
    TripleStore(spark, SchemaBuilder.triples(profiles.collect().toSeq) ++
      GraphLinker.link(spark, PipelineAbstraction.abstractCorpus(spark, scripts), profiles)
        .collect())
}
