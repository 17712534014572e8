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
    * schema's triples come first, then the linked pipelines' in
    * partition order, read back as one dictionary-coded block per
    * partition by the store; the GNN examples are extracted in this
    * order.
    */
  def build(spark: SparkSession, profiles: Seq[ColumnProfile],
            scripts: Dataset[ScriptRecord]): TripleStore = {
    import spark.implicits._
    TripleStore(spark, SchemaBuilder.triples(profiles),
      GraphLinker.link(spark, PipelineAbstraction.abstractCorpus(spark, scripts),
        spark.createDataset(profiles)))
  }
}
