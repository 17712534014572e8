package repro.substrate.python

import org.scalacheck.{Gen, Prop}

import repro.{PropSpec, SparkSpec}
import PyAst._

/** Python-subset parser tests. */
class PyParserSpec extends SparkSpec with PropSpec {

  private def one(line: String): PyStmt = PyParser.parseLine(line, 1, 0)

  test("import with alias") {
    assert(one("import pandas as pd") == PyImport("pandas", Some("pd"), 1, 0, "import pandas as pd"))
  }
  test("import dotted module") {
    one("import matplotlib.pyplot as plt") match {
      case PyImport(m, a, _, _, _) => assert(m == "matplotlib.pyplot" && a.contains("plt"))
      case other                   => fail(other.toString)
    }
  }
  test("from-import multiple names") {
    one("from sklearn.impute import SimpleImputer, KNNImputer") match {
      case PyFromImport(m, ns, _, _, _) =>
        assert(m == "sklearn.impute" && ns == Seq("SimpleImputer", "KNNImputer"))
      case other => fail(other.toString)
    }
  }
  test("simple assignment with call") {
    one("df = pd.read_csv('titanic/train.csv')") match {
      case PyAssign(Seq(PyName("df")), Seq(PyCall(PyAttr(PyName("pd"), "read_csv"), args)), _, _, _) =>
        assert(args == Seq(PyArg(None, PyStr("titanic/train.csv"))))
      case other => fail(other.toString)
    }
  }
  test("tuple assignment (Fig. 3 line 4)") {
    one("X, y = df.drop('Survived', axis=1), df['Survived']") match {
      case PyAssign(ts, vs, _, _, _) =>
        assert(ts == Seq(PyName("X"), PyName("y")))
        assert(vs.size == 2)
        vs.head match {
          case PyCall(PyAttr(PyName("df"), "drop"), args) =>
            assert(args == Seq(PyArg(None, PyStr("Survived")), PyArg(Some("axis"), PyNum("1"))))
          case other => fail(other.toString)
        }
        assert(vs(1) == PySubscript(PyName("df"), PyStr("Survived")))
      case other => fail(other.toString)
    }
  }
  test("subscript assignment target") {
    one("X['Sex'] = le.fit_transform(X['Sex'])") match {
      case PyAssign(Seq(PySubscript(PyName("X"), PyStr("Sex"))), Seq(v), _, _, _) =>
        assert(callsIn(v).nonEmpty)
      case other => fail(other.toString)
    }
  }
  test("keyword arguments") {
    one("imputer = SimpleImputer(strategy='most_frequent')") match {
      case PyAssign(_, Seq(PyCall(PyName("SimpleImputer"), args)), _, _, _) =>
        assert(args == Seq(PyArg(Some("strategy"), PyStr("most_frequent"))))
      case other => fail(other.toString)
    }
  }
  test("mixed positional and keyword args (Fig. 3 line 12)") {
    one("clf = RandomForestClassifier(50, max_depth=10)") match {
      case PyAssign(_, Seq(PyCall(_, args)), _, _, _) =>
        assert(args == Seq(PyArg(None, PyNum("50")), PyArg(Some("max_depth"), PyNum("10"))))
      case other => fail(other.toString)
    }
  }
  test("four-target split assignment") {
    one("X_train, X_test, y_train, y_test = train_test_split(X, y, 0.2)") match {
      case PyAssign(ts, Seq(PyCall(PyName("train_test_split"), args)), _, _, _) =>
        assert(ts.size == 4 && args.size == 3)
      case other => fail(other.toString)
    }
  }
  test("nested call as argument") {
    one("print(accuracy_score(y_test, clf.predict(X_test)))") match {
      case PyExprStmt(e, _, _, _) =>
        val calls = callsIn(e).flatMap {
          case PyCall(PyName(n), _)       => Some(n)
          case PyCall(PyAttr(_, n), _)    => Some(n)
          case _                          => None
        }
        assert(calls.toSet == Set("print", "accuracy_score", "predict"))
      case other => fail(other.toString)
    }
  }
  test("for header with list literal") {
    one("for c in ['a', 'b']:") match {
      case PyFor("c", PyListLit(items), _, _, _) =>
        assert(items == Seq(PyStr("a"), PyStr("b")))
      case other => fail(other.toString)
    }
  }
  test("if/elif/else headers") {
    assert(one("if True:").isInstanceOf[PyIf])
    assert(one("elif x > 2:").asInstanceOf[PyIf].kind == "elif")
    assert(one("else:").asInstanceOf[PyIf].kind == "else")
  }
  test("while header") { assert(one("while x < 10:").isInstanceOf[PyWhile]) }
  test("def header with params") {
    one("def evaluate(m, data):") match {
      case PyDef("evaluate", params, _, _, _) => assert(params == Seq("m", "data"))
      case other                              => fail(other.toString)
    }
  }
  test("return statement") {
    one("return f1_score(y, p)") match {
      case PyReturn(Some(e), _, _, _) => assert(callsIn(e).size == 1)
      case other                      => fail(other.toString)
    }
  }
  test("binary operators parse structurally") {
    one("z = x * 2 + y") match {
      case PyAssign(_, Seq(v), _, _, _) => assert(namesRead(v).toSet == Set("x", "y"))
      case other                        => fail(other.toString)
    }
  }
  test("comments are stripped") {
    one("x = 1  # a comment") match {
      case PyAssign(Seq(PyName("x")), Seq(PyNum("1")), _, _, _) =>
      case other => fail(other.toString)
    }
  }
  test("a # inside a keyword string argument is kept") {
    one("df = pd.read_csv('a.csv', sep='#')  # the separator") match {
      case PyAssign(_, Seq(PyCall(_, args)), _, _, text) =>
        assert(args == Seq(PyArg(None, PyStr("a.csv")), PyArg(Some("sep"), PyStr("#"))))
        assert(text == "df = pd.read_csv('a.csv', sep='#')")
      case other => fail(other.toString)
    }
  }
  test("a comment-only line yields no statement; a trailing comment is not in the text") {
    val stmts = PyParser.parse("# load\n  # indented note\nx = f('#', \"it's\")  # call f\n")
    assert(stmts.map(s => (s.line, s.text)) == Seq((3, "x = f('#', \"it's\")")))
  }
  test("indentation is recorded") {
    val stmts = PyParser.parse("for c in [1]:\n    x = c\ny = 2")
    assert(stmts.map(_.indent) == Seq(0, 4, 0))
    assert(stmts.map(_.line) == Seq(1, 2, 3))
  }
  test("unparseable lines degrade to opaque, never throw") {
    one("x = {weird: [dict,, syntax}") match {
      case PyExprStmt(PyOpaque(_), _, _, _) =>
      case other => fail(s"expected opaque, got $other")
    }
  }
  test("parser never throws on arbitrary input (property)") {
    checkProp(Prop.forAll(Gen.asciiStr) { s => PyParser.parse(s); true })
  }
  test("expression helpers: exprSize and subscriptsIn") {
    one("X['a'] = np.log(X['a'])") match {
      case PyAssign(ts, vs, _, _, _) =>
        assert((ts ++ vs).flatMap(subscriptsIn).size == 2)
        assert(vs.map(exprSize).sum >= 4)
      case other => fail(other.toString)
    }
  }
  test("expression helpers visit a node before its children, left to right") {
    val gx = PyCall(PyName("g"), Seq(PyArg(None, PyName("x"))))
    val gc = PySubscript(gx, PyStr("c"))
    val hy = PyCall(PyName("h"), Seq(PyArg(None, PyName("y"))))
    val af = PyCall(PyAttr(PyName("a"), "f"), Seq(PyArg(None, gc), PyArg(None, hy)))
    val e  = PyCall(PyAttr(af, "k"), Seq(PyArg(None, PyName("z"))))
    assert(one("""a.f(g(x)["c"], h(y)).k(z)""") match {
      case PyExprStmt(parsed, _, _, _) => parsed == e
      case _                           => false
    })
    assert(namesRead(e) == Seq("a", "g", "x", "h", "y", "z"))
    assert(callsIn(e) == Seq(e, af, gx, hy))
    assert(subscriptsIn(e) == Seq(gc))
    assert(exprSize(e) == 14)
  }
  test("full-script parse keeps all non-empty lines") {
    val script =
      """import pandas as pd
        |df = pd.read_csv('a/b.csv')
        |
        |print(df.head())
        |""".stripMargin
    assert(PyParser.parse(script).size == 3)
  }
}
