package repro.core.pipeline

import repro.SparkSpec
import repro.core.graph.Lids
import repro.data.PipelineCorpus
import repro.substrate.rdf.Triple

/** Pipeline Abstraction (Alg. 1) on the paper's Fig. 3 running example. */
class PipelineAbstractionSpec extends SparkSpec {

  private val fig3 =
    """import pandas as pd
      |from sklearn.impute import SimpleImputer
      |from sklearn.preprocessing import LabelEncoder, StandardScaler
      |from sklearn.model_selection import train_test_split
      |from sklearn.ensemble import RandomForestClassifier
      |from sklearn.metrics import accuracy_score
      |df = pd.read_csv('titanic/train.csv')
      |X, y = df.drop('Survived', axis=1), df['Survived']
      |le = LabelEncoder()
      |X['Sex'] = le.fit_transform(X['Sex'])
      |imputer = SimpleImputer(strategy='most_frequent')
      |X['Age'] = imputer.fit_transform(X['Age'])
      |scaler = StandardScaler()
      |X['NormalizedAge'] = scaler.fit_transform(X['Age'])
      |X_train, X_test, y_train, y_test = train_test_split(X, y, 0.2)
      |clf = RandomForestClassifier(50, max_depth=10)
      |clf.fit(X_train, y_train)
      |print(accuracy_score(y_test, clf.predict(X_test)))
      |print(df.head())
      |""".stripMargin

  private val rec = ScriptRecord("pipeline/titanic/0", "titanic", "alice", 120, 0.83, fig3)
  private lazy val triples: Seq[Triple] = PipelineAbstraction.abstractScript(rec)

  private def byPred(p: String) = triples.filter(_.predicate == p)

  test("all triples live in the pipeline's named graph") {
    assert(triples.nonEmpty)
    assert(triples.forall(_.graph == Lids.pipelineGraph("pipeline/titanic/0")))
  }
  test("pipeline metadata triples") {
    assert(byPred(Lids.Prop.IsWrittenBy).map(_.obj) == Seq("alice"))
    assert(byPred(Lids.Prop.HasVotes).map(_.obj) == Seq("120"))
    assert(byPred(Lids.Prop.AboutDataset).map(_.obj) == Seq(Lids.datasetUri("titanic")))
  }
  test("insignificant statement print(df.head()) is discarded") {
    assert(!byPred(Lids.Prop.HasText).exists(_.obj.contains("df.head()")))
  }
  test("significant print with a metric call is kept") {
    assert(byPred(Lids.Prop.HasText).exists(_.obj.contains("accuracy_score")))
  }
  test("dataset usage: read_csv predicts a table read") {
    assert(byPred(Lids.Prop.ReadsTable).map(_.obj) == Seq(Lids.tableUri("titanic", "train")))
  }
  test("dataset usage: string subscripts predict column reads") {
    val cols = byPred(Lids.Prop.ReadsColumn).map(_.obj).toSet
    assert(cols.contains(Lids.columnUri("titanic", "train", "Survived")))
    assert(cols.contains(Lids.columnUri("titanic", "train", "Sex")))
    assert(cols.contains(Lids.columnUri("titanic", "train", "Age")))
    // the user-defined column is *predicted* here; the Graph Linker
    // removes it later (see GraphLinkerSpec)
    assert(cols.contains(Lids.columnUri("titanic", "train", "NormalizedAge")))
  }
  test("documentation analysis: implicit positional parameter names") {
    // RandomForestClassifier(50, …) → n_estimators=50
    assert(byPred(Lids.Prop.HasParameter).exists(_.obj == "n_estimators=50"))
    assert(byPred(Lids.Prop.HasParameter).exists(_.obj == "max_depth=10"))
  }
  test("documentation analysis: unspecified defaults are materialized") {
    // RandomForestClassifier defaults
    assert(byPred(Lids.Prop.HasParameter).exists(_.obj == "criterion='gini'"))
    assert(byPred(Lids.Prop.HasParameter).exists(_.obj == "min_samples_leaf=1"))
    // SimpleImputer(strategy=…) explicit beats default
    assert(byPred(Lids.Prop.HasParameter).exists(_.obj == "strategy='most_frequent'"))
    assert(!byPred(Lids.Prop.HasParameter).exists(_.obj == "strategy='mean'"))
  }
  test("documentation analysis: return types drive method resolution") {
    val calls = byPred(Lids.Prop.CallsFunction).map(_.obj).toSet
    assert(calls.contains(Lids.libraryUri("pandas.read_csv")))
    assert(calls.contains(Lids.libraryUri("pandas.DataFrame.drop")))
    assert(calls.contains(Lids.libraryUri("sklearn.impute.SimpleImputer")))
    assert(calls.contains(Lids.libraryUri("sklearn.impute.SimpleImputer.fit_transform")))
    assert(calls.contains(Lids.libraryUri("sklearn.ensemble.RandomForestClassifier.fit")))
  }
  test("code flow chains significant statements in order") {
    val next = byPred(Lids.Prop.NextStatement)
    val nStmts = triples.count(t => t.predicate == Lids.Prop.RdfType &&
      t.obj == Lids.Cls.Statement)
    assert(next.size == nStmts - 1)
  }
  test("data flow: df flows from read_csv to the split statement") {
    val readStmt = byPred(Lids.Prop.ReadsTable).head.subject
    val flows    = byPred(Lids.Prop.HasDataFlowTo)
    assert(flows.exists(_.subject == readStmt))
  }
  test("control flow: module-level statements tagged module, imports tagged import") {
    val ctl = byPred(Lids.Prop.InControlFlow).map(_.obj)
    assert(ctl.contains("import"))
    assert(ctl.contains("module"))
  }
  test("control flow: loop, conditional, and function bodies are tagged") {
    val script =
      """import numpy as np
        |for i in [1, 2]:
        |    x = np.sqrt(i)
        |if True:
        |    y = np.log(2)
        |def f(a):
        |    return np.abs(a)
        |""".stripMargin
    val ts = PipelineAbstraction.abstractScript(
      ScriptRecord("pipeline/x/1", "x", "bob", 1, 0.5, script))
    val ctl = ts.filter(_.predicate == Lids.Prop.InControlFlow).map(_.obj).toSet
    assert(Set("loop", "conditional", "function").subsetOf(ctl))
  }
  test("library graph has hierarchy and node types") {
    val lib = PipelineAbstraction.libraryGraph()
    assert(lib.exists(t => t.predicate == Lids.Prop.IsPartOfLibrary &&
      t.subject == Lids.libraryUri("sklearn.impute") &&
      t.obj == Lids.libraryUri("sklearn")))
    assert(lib.exists(t => t.predicate == Lids.Prop.RdfType &&
      t.subject == Lids.libraryUri("sklearn.impute.SimpleImputer") &&
      t.obj == Lids.Cls.Class))
    assert(lib.exists(t => t.subject == Lids.libraryUri("pandas") &&
      t.obj == Lids.Cls.Library))
  }
  test("a # inside the read_csv path still predicts the table read") {
    val hashed = rec.copy(script = "import pandas as pd\ndf = pd.read_csv('data#1/t.csv')\n")
    assert(PipelineAbstraction.abstractScript(hashed).filter(_.predicate == Lids.Prop.ReadsTable)
      .map(_.obj) == Seq(Lids.tableUri("data#1", "t")))
  }
  test("comments leave the abstraction unchanged (metamorphic)") {
    PipelineCorpus.abstractionCorpus(50, seed = 17).foreach { r =>
      val commented = r.script.linesIterator.zipWithIndex.map { case (line, i) =>
        val note = if (i % 3 == 0) s"${line.takeWhile(_ == ' ')}# step $i\n" else ""
        s"$note$line  # it's a 'comment'"
      }.mkString("", "\n", "\n")
      assert(PipelineAbstraction.abstractScript(r.copy(script = commented)) ==
        PipelineAbstraction.abstractScript(r), r.id)
    }
  }
  test("abstraction is deterministic") {
    assert(PipelineAbstraction.abstractScript(rec) == triples)
  }
  test("corpus abstraction runs as a Spark job over script records") {
    import spark.implicits._
    val corpus = spark.createDataset(Seq(
      rec, rec.copy(id = "pipeline/titanic/1", votes = 10)))
    val all = PipelineAbstraction.abstractCorpus(spark, corpus).collect()
    assert(all.exists(_.graph == Lids.pipelineGraph("pipeline/titanic/1")))
    assert(all.exists(_.predicate == Lids.Prop.IsPartOfLibrary)) // library graph attached
  }
}
