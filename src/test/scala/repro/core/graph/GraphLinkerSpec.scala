package repro.core.graph

import repro.SparkSpec
import repro.core.pipeline.{PipelineAbstraction, ScriptRecord}
import repro.core.profile.DataProfiler

/** Graph Linker (§3.1 phase 2): predicted reads are verified against the
  * Data Global Schema; the paper's NormalizedAge example must vanish.
  */
class GraphLinkerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val trainDf = Seq(
    (1, "male", 22.0, 0), (2, "female", 38.0, 1), (3, "female", 26.0, 1),
    (4, "male", 35.0, 0), (5, "male", 28.0, 1),
  ).toDF("PassengerId", "Sex", "Age", "Survived")

  private lazy val profiles = DataProfiler.profileTable(spark, "titanic", "train", trainDf)

  private val script =
    """import pandas as pd
      |from sklearn.preprocessing import StandardScaler
      |df = pd.read_csv('titanic/train.csv')
      |X, y = df.drop('Survived', axis=1), df['Survived']
      |X['Sex'] = X['Sex']
      |scaler = StandardScaler()
      |X['NormalizedAge'] = scaler.fit_transform(X['Age'])
      |df2 = pd.read_csv('titanic/notatable.csv')
      |""".stripMargin

  private lazy val linked = {
    val raw = spark.createDataset(Seq(
      PipelineAbstraction.abstractScript(
        ScriptRecord("pipeline/titanic/0", "titanic", "a", 1, 0.9, script))))
      .flatMap(identity)
    GraphLinker.link(spark, raw, profiles.toDS()).collect().toSeq
  }

  test("existing column reads survive linking") {
    val cols = linked.filter(_.predicate == Lids.Prop.ReadsColumn).map(_.obj).toSet
    assert(cols.contains(Lids.columnUri("titanic", "train", "Survived")))
    assert(cols.contains(Lids.columnUri("titanic", "train", "Sex")))
    assert(cols.contains(Lids.columnUri("titanic", "train", "Age")))
  }
  test("user-defined column NormalizedAge is removed") {
    assert(!linked.exists(t => t.obj.endsWith("/NormalizedAge")))
  }
  test("reads of non-existent tables are removed") {
    val tables = linked.filter(_.predicate == Lids.Prop.ReadsTable).map(_.obj).toSet
    assert(tables == Set(Lids.tableUri("titanic", "train")))
  }
  test("non-read triples pass through untouched") {
    val raw = PipelineAbstraction.abstractScript(
      ScriptRecord("pipeline/titanic/0", "titanic", "a", 1, 0.9, script))
    val nonRead = (t: repro.substrate.rdf.Triple) =>
      t.predicate != Lids.Prop.ReadsColumn && t.predicate != Lids.Prop.ReadsTable
    assert(linked.filter(nonRead).toSet == raw.filter(nonRead).toSet)
  }
  test("full LiDS graph build links pipelines to the dataset graph") {
    val store = LidsGraphBuilder.build(spark, profiles,
      spark.createDataset(Seq(
        ScriptRecord("pipeline/titanic/0", "titanic", "a", 1, 0.9, script))))
    val byPred = store.countByPredicate()
    assert(byPred.contains(Lids.Prop.IsPartOf))        // dataset graph
    assert(byPred.contains(Lids.Prop.ReadsColumn))     // linked pipeline graph
    assert(byPred.contains(Lids.Prop.IsPartOfLibrary)) // library graph
  }
}
