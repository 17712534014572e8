package perfbench

import org.apache.spark.sql.functions.col

import repro.core.automl.CleaningOps
import repro.core.discovery.{KglidsDiscovery, PredefinedOps}
import repro.core.pipeline.PipelineAbstraction
import repro.core.profile.DataProfiler
import repro.data.{LakeBench, MlDatasets, PipelineCorpus}
import repro.substrate.rdf.TripleStore

/** The build's class-loading run: touches every layer the workloads use,
  * on tiny inputs, so that the JVM's class-data archive written at its
  * exit holds the classes every benchmark run loads. Measures nothing.
  */
object Warm {
  def main(args: Array[String]): Unit = {
    val spark = Main.session()
    try {
      import spark.implicits._
      val lake = LakeBench.generate(LakeBench.santosLiteSmall.copy(nFamilies = 2, baseRows = 60))
      val p = KglidsDiscovery.preprocessCells(spark, lake.cells(spark))
      KglidsDiscovery.queryUnionable(p, s"${lake.name}/${lake.tables.head.name}", 3)

      val corpus = spark.createDataset(PipelineCorpus.abstractionCorpus(40, 1))
      val store  = TripleStore.fromDataset(PipelineAbstraction.abstractCorpus(spark, corpus)).cache()
      store.size
      PredefinedOps.getTopKLibraryUsed(store, 3).collect()

      val d  = MlDatasets.cleaningBenchmark.head
      val df = d.generate(spark)
      DataProfiler.profileTable(spark, "unseen", "t", df)
      CleaningOps(CleaningOps.SimpleImputer, df, d.featureCols)
        .filter(col(d.featureCols.head).isNull).count()

      val tr = new Tracer(true)
      tr.request(tr.span("warm")(()))
      Stats.describe(Seq(1.0), "s")
    } finally spark.stop()
  }
}
