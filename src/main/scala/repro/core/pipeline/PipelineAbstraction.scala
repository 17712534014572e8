package repro.core.pipeline

import scala.collection.mutable

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.graph.Lids
import repro.substrate.python.PyAst._
import repro.substrate.python.PyParser
import repro.substrate.rdf.Triple

/** A pipeline script plus its portal metadata `MD` (Alg. 1 input). */
case class ScriptRecord(
    id: String,
    dataset: String,
    author: String,
    votes: Int,
    score: Double,
    script: String,
)

/** Pipeline Abstraction — Alg. 1.
  *
  * Combines lightweight static code analysis (via [[PyParser]]) with
  * documentation analysis (via [[DocDb]]: return types, implicit
  * parameter names, default parameter values) and dataset usage analysis
  * (predicted table reads from `pandas.read_csv`, predicted column reads
  * from string subscripts over DataFrame variables). Each script becomes
  * its own named graph; the corpus is abstracted as independent Spark
  * tasks (`S_rdd.map(analyze_pipeline_script)`), as an RDD.
  */
object PipelineAbstraction {

  /** Abstract a whole corpus in parallel → one Dataset of triples
    * (pipeline named graphs ∪ metadata ∪ one shared library graph), in
    * the corpus's partition order with the library graph last. The
    * Dataset is a view of an RDD of triples:
    * [[repro.substrate.rdf.TripleStore.fromDataset]] reads them back with
    * no encoder or decoder in between.
    */
  def abstractCorpus(spark: SparkSession, corpus: Dataset[ScriptRecord]): Dataset[Triple] = {
    import spark.implicits._
    spark.createDataset(corpus.rdd.flatMap(abstractScript) ++
      spark.sparkContext.parallelize(libraryGraph(), 1))
  }

  /** The library graph: hierarchy + node types from the documentation
    * (built once on the main node in Alg. 1).
    */
  def libraryGraph(): Seq[Triple] = {
    val g   = Lids.DefaultGraph
    val out = mutable.LinkedHashSet.empty[Triple]
    DocDb.hierarchyPaths.foreach { path =>
      path.indices.foreach { i =>
        val prefix = path.take(i + 1)
        val uri    = Lids.libraryUri(prefix.mkString("."))
        val cls =
          if (i == 0) Lids.Cls.Library
          else if (prefix.last.headOption.exists(_.isUpper)) Lids.Cls.Class
          else if (i == path.length - 1) Lids.Cls.Function
          else Lids.Cls.Package
        out += Triple(g, uri, Lids.Prop.RdfType, cls)
        if (i > 0)
          out += Triple(g, uri, Lids.Prop.IsPartOfLibrary,
                        Lids.libraryUri(path.take(i).mkString(".")))
      }
    }
    out.toSeq
  }

  /** Abstract one script into its named graph (worker task of Alg. 1). */
  def abstractScript(rec: ScriptRecord): Seq[Triple] = {
    val g           = Lids.pipelineGraph(rec.id)
    val pipelineUri = Lids.ResourcePrefix + rec.id
    val triples     = mutable.ArrayBuffer.empty[Triple]

    triples += Triple(g, pipelineUri, Lids.Prop.RdfType, Lids.Cls.Pipeline)
    triples += Triple(g, pipelineUri, Lids.Prop.IsWrittenBy, rec.author)
    triples += Triple(g, pipelineUri, Lids.Prop.HasVotes, rec.votes.toString)
    triples += Triple(g, pipelineUri, Lids.Prop.HasScore, f"${rec.score}%.4f")
    triples += Triple(g, pipelineUri, Lids.Prop.AboutDataset, Lids.datasetUri(rec.dataset))

    val stmts = PyParser.parse(rec.script)

    // --- analysis environment -------------------------------------------
    val aliases     = mutable.Map.empty[String, String] // pd -> pandas
    val fromImports = mutable.Map.empty[String, String] // SimpleImputer -> sklearn.impute.SimpleImputer
    val varTypes    = mutable.Map.empty[String, String] // imputer -> sklearn.impute.SimpleImputer
    val varTable    = mutable.Map.empty[String, (String, String)] // df -> (dataset, table)
    val lastWriter  = mutable.Map.empty[String, String] // var -> stmt URI
    val ctlStack    = mutable.Stack.empty[(Int, String)] // (headerIndent, kind)

    def resolvePath(func: PyExpr): Option[String] = {
      def flatten(e: PyExpr, acc: List[String]): Option[(String, List[String])] = e match {
        case PyName(id)   => Some((id, acc))
        case PyAttr(b, a) => flatten(b, a :: acc)
        case PyCall(f, _) => // chained call like x.foo().bar — resolve via return type
          flatten(f, acc) // approximate: keep the chain's path
        case _ => None
      }
      flatten(func, Nil).flatMap { case (root, attrs) =>
        if (aliases.contains(root)) Some((aliases(root) :: attrs).mkString("."))
        else if (fromImports.contains(root)) Some((fromImports(root) :: attrs).mkString("."))
        else if (varTypes.contains(root)) Some((varTypes(root) :: attrs).mkString("."))
        else if (root == "print" && attrs.isEmpty) Some("print")
        else None
      }
    }

    def renderValue(e: PyExpr): String = e match {
      case PyStr(s)        => s"'$s'"
      case PyNum(n)        => n
      case PyBool(b)       => if (b) "True" else "False"
      case PyName(n)       => n
      case PyAttr(b, a)    => s"${renderValue(b)}.$a"
      case PyListLit(xs)   => xs.map(renderValue).mkString("[", ", ", "]")
      case PyTupleLit(xs)  => xs.map(renderValue).mkString("(", ", ", ")")
      case PySubscript(b, i) => s"${renderValue(b)}[${renderValue(i)}]"
      case PyCall(f, _)    => s"${renderValue(f)}(...)"
      case PyBinOp(l, o, r) => s"${renderValue(l)} $o ${renderValue(r)}"
      case PyOpaque(t)     => t
    }

    /** Root variable of an assignable expression. */
    def rootVar(e: PyExpr): Option[String] = e match {
      case PyName(id)        => Some(id)
      case PySubscript(b, _) => rootVar(b)
      case PyAttr(b, _)      => rootVar(b)
      case _                 => None
    }

    /** True when the statement carries no pipeline semantics (§3.1). */
    def isInsignificant(s: PyStmt, calls: Seq[(PyCall, Option[String])]): Boolean = s match {
      case _: PyExprStmt =>
        calls.nonEmpty && calls.forall(_._2.exists(DocDb.insignificantCalls.contains))
      case _ => false
    }

    var stmtIndex    = 0
    var prevStmtUri  = Option.empty[String]

    stmts.foreach { stmt =>
      // control-flow context from indentation
      while (ctlStack.nonEmpty && ctlStack.top._1 >= stmt.indent) ctlStack.pop()
      val controlKind = stmt match {
        case _: PyImport | _: PyFromImport => "import"
        case _ => if (ctlStack.isEmpty) "module" else ctlStack.top._2
      }
      stmt match {
        case _: PyFor | _: PyWhile => ctlStack.push((stmt.indent, "loop"))
        case _: PyIf               => ctlStack.push((stmt.indent, "conditional"))
        case _: PyDef              => ctlStack.push((stmt.indent, "function"))
        case _                     =>
      }

      // environment updates happen for every statement
      stmt match {
        case PyImport(m, alias, _, _, _)   => aliases(alias.getOrElse(m)) = m
        case PyFromImport(m, names, _, _, _) =>
          names.foreach(n => fromImports(n) = s"$m.$n")
        case _ =>
      }

      // each call of the statement with its library path, resolved once
      val calls = exprsOf(stmt).flatMap(callsIn).map(c => (c, resolvePath(c.func)))

      if (!isInsignificant(stmt, calls)) {
        val stmtUri = Lids.statementUri(rec.id, stmtIndex)
        stmtIndex += 1

        triples += Triple(g, stmtUri, Lids.Prop.RdfType, Lids.Cls.Statement)
        triples += Triple(g, stmtUri, Lids.Prop.HasText, stmt.text)
        triples += Triple(g, stmtUri, Lids.Prop.InControlFlow, controlKind)
        prevStmtUri.foreach(p => triples += Triple(g, p, Lids.Prop.NextStatement, stmtUri))
        prevStmtUri = Some(stmtUri)

        // ---- data flow: reads of variables written earlier
        val reads = exprsOf(stmt).flatMap(namesRead).distinct
        reads.flatMap(lastWriter.get).distinct.foreach { writer =>
          if (writer != stmtUri)
            triples += Triple(g, writer, Lids.Prop.HasDataFlowTo, stmtUri)
        }

        // ---- documentation analysis over calls
        calls.foreach { case (call, resolved) =>
          resolved.filterNot(_ == "print").foreach { path =>
            triples += Triple(g, stmtUri, Lids.Prop.CallsFunction, Lids.libraryUri(path))
            DocDb.lookup(path).foreach { doc =>
              val explicit = call.args.zipWithIndex.map { case (a, i) =>
                val name = a.name.orElse(doc.paramNames.lift(i)).getOrElse(s"arg$i")
                name -> renderValue(a.value)
              }
              val explicitNames = explicit.map(_._1).toSet
              val defaults = doc.defaults.filterNot { case (k, _) => explicitNames(k) }
              (explicit ++ defaults.toSeq.sortBy(_._1)).foreach { case (k, v) =>
                triples += Triple(g, stmtUri, Lids.Prop.HasParameter, s"$k=$v")
              }
            }
          }
        }

        // ---- dataset usage analysis: predicted table reads
        calls.foreach { case (call, resolved) =>
          if (resolved.contains("pandas.read_csv")) {
            call.args.headOption.map(_.value) match {
              case Some(PyStr(pathStr)) =>
                val parts = pathStr.stripSuffix(".csv").split('/').filter(_.nonEmpty)
                val (ds, tbl) =
                  if (parts.length >= 2) (parts.init.mkString("/"), parts.last)
                  else (rec.dataset, parts.headOption.getOrElse("table"))
                triples += Triple(g, stmtUri, Lids.Prop.ReadsTable, Lids.tableUri(ds, tbl))
                stmt match {
                  case PyAssign(Seq(PyName(t)), _, _, _, _) => varTable(t) = (ds, tbl)
                  case _                                    =>
                }
              case _ =>
            }
          }
        }

        // ---- dataset usage analysis: predicted column reads
        exprsOf(stmt).flatMap(subscriptsIn).foreach {
          case PySubscript(base, PyStr(colName)) =>
            rootVar(base).flatMap(varTable.get).foreach { case (ds, tbl) =>
              triples += Triple(g, stmtUri, Lids.Prop.ReadsColumn,
                                Lids.columnUri(ds, tbl, colName))
            }
          case _ =>
        }

        // predicted column reads from drop('label') on a bound frame —
        // the label column is being referenced by name
        calls.foreach { case (call, resolved) =>
          resolved.filter(_.endsWith("DataFrame.drop")).foreach { _ =>
            (call.func, call.args.headOption.map(_.value)) match {
              case (PyAttr(base, _), Some(PyStr(colName))) =>
                rootVar(base).flatMap(varTable.get).foreach { case (ds, tbl) =>
                  triples += Triple(g, stmtUri, Lids.Prop.ReadsColumn,
                                    Lids.columnUri(ds, tbl, colName))
                }
              case _ =>
            }
          }
        }

        // ---- write tracking (data flow + type/table propagation)
        stmt match {
          case PyAssign(targets, values, _, _, _) =>
            val pairs =
              if (targets.size == values.size) targets.zip(values.map(Option(_)))
              else targets.map(_ -> Option.empty[PyExpr])
            pairs.foreach { case (tgt, rhsOpt) =>
              rootVar(tgt).foreach { v =>
                lastWriter(v) = stmtUri
                rhsOpt.foreach { rhs =>
                  // type propagation via documentation return types
                  callsIn(rhs).headOption
                    .flatMap(c => resolvePath(c.func))
                    .flatMap(DocDb.lookup)
                    .flatMap(_.returnType)
                    .foreach(rt => varTypes(v) = rt)
                  // table-binding propagation (drop/fillna/… keep frame)
                  tgt match {
                    case PyName(_) =>
                      val boundRoots = namesRead(rhs).flatMap(varTable.get).distinct
                      if (boundRoots.size == 1 && !varTable.contains(v))
                        varTable(v) = boundRoots.head
                    case _ =>
                  }
                }
              }
            }
            // tuple-returning split: X_train, X_test, ... inherit binding
            if (targets.size > 1 && values.size == 1) {
              val boundRoots = values.flatMap(namesRead).flatMap(varTable.get).distinct
              targets.flatMap(rootVar).foreach { v =>
                lastWriter(v) = stmtUri
                if (boundRoots.size == 1 && !varTable.contains(v)) varTable(v) = boundRoots.head
              }
            }
          case PyFor(tgt, _, _, _, _) => lastWriter(tgt) = stmtUri
          case _                      =>
        }
      }
    }
    triples.toSeq
  }
}
