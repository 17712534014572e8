package repro.substrate.baselines

import scala.collection.mutable

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.pipeline.ScriptRecord
import repro.substrate.python.PyAst._
import repro.substrate.python.PyParser
import repro.substrate.rdf.Triple

/** GraphGen4Code-style general-purpose code knowledge graph (§6.2).
  *
  * Unlike KGLiDS's data-science-specific abstraction, this models source
  * code the way a WALA-based whole-program tool does:
  *
  *  - *every* statement is kept (prints, head(), plotting — no
  *    significance filter) and every *expression node* becomes a graph
  *    node;
  *  - flow edges are emitted at expression granularity (code flow
  *    between consecutive expression evaluations, data flow from each
  *    definition to every transitive use — computed by a fixpoint pass);
  *  - per-statement location and variable-name triples, per-call
  *    parameter-order triples, and per-prefix library-path expansions
  *    are materialized;
  *  - no RDF node types, no dataset-read or library-hierarchy modelling
  *    (Table 4's missing rows for G4C).
  *
  * This yields the paper's Table 3 shape: several times more triples
  * and far more analysis time for the same corpus.
  */
object GraphGen4Code {

  // G4C predicate names (deliberately not the LiDS ontology)
  val StmtLocation  = "g4c:statementLocation"
  val VariableName  = "g4c:variableName"
  val ParamOrder    = "g4c:parameterOrder"
  val ColumnRead    = "g4c:columnRead"
  val LibraryCall   = "g4c:libraryCall"
  val CodeFlow      = "g4c:codeFlow"
  val DataFlow      = "g4c:dataFlow"
  val ControlFlow   = "g4c:controlFlowType"
  val FuncParameter = "g4c:funcParameter"
  val StmtText      = "g4c:statementText"

  /** Table-4 aspect per predicate. */
  val Aspects: Map[String, String] = Map(
    StmtLocation  -> "Statement location",
    VariableName  -> "Variable names",
    ParamOrder    -> "Func. parameter order",
    ColumnRead    -> "Column reads",
    LibraryCall   -> "Library calls",
    CodeFlow      -> "Code flow",
    DataFlow      -> "Data flow",
    ControlFlow   -> "Control flow type",
    FuncParameter -> "Func. parameters",
    StmtText      -> "Statement text",
  )

  /** Abstract a whole corpus in parallel, on the same RDD path as
    * KGLiDS's [[repro.core.pipeline.PipelineAbstraction.abstractCorpus]],
    * so that Table 3 times both systems' analysis alike.
    */
  def abstractCorpus(spark: SparkSession, corpus: Dataset[ScriptRecord]): Dataset[Triple] = {
    import spark.implicits._
    spark.createDataset(corpus.rdd.flatMap(abstractScript))
  }

  /** Dotted raw path of a callee expression (no alias resolution — G4C
    * records the syntactic path and every prefix of it).
    */
  private def rawPath(e: PyExpr): Option[String] = e match {
    case PyName(id)   => Some(id)
    case PyAttr(b, a) => rawPath(b).map(_ + "." + a)
    case PyCall(f, _) => rawPath(f)
    case _            => None
  }

  def abstractScript(rec: ScriptRecord): Seq[Triple] = {
    val g       = s"g4c:${rec.id}"
    val triples = mutable.ArrayBuffer.empty[Triple]
    val stmts   = PyParser.parse(rec.script)

    def stmtUri(i: Int) = s"$g/stmt$i"
    def exprUri(si: Int, ei: Int) = s"$g/stmt$si/expr$ei"

    // per-statement expression-node inventory + def/use sets
    case class Analyzed(idx: Int, stmt: PyStmt, exprNodes: Int,
                        defs: Seq[String], uses: Seq[String])

    val analyzed = stmts.zipWithIndex.map { case (s, i) =>
      val exprs = exprsOf(s)
      val defs = s match {
        case PyAssign(ts, _, _, _, _) =>
          ts.flatMap {
            case PyName(n)                  => Some(n)
            case PySubscript(PyName(n), _)  => Some(n)
            case PyAttr(PyName(n), _)       => Some(n)
            case _                          => None
          }
        case PyFor(t, _, _, _, _)    => Seq(t)
        case PyImport(m, a, _, _, _) => Seq(a.getOrElse(m))
        case PyFromImport(_, ns, _, _, _) => ns
        case _                       => Seq.empty
      }
      Analyzed(i, s, math.max(1, exprs.map(exprSize).sum),
               defs = defs, uses = exprs.flatMap(namesRead))
    }

    // ---- per-statement structural triples (every statement, no filter)
    analyzed.foreach { a =>
      val su = stmtUri(a.idx)
      triples += Triple(g, su, StmtLocation, a.stmt.line.toString)
      triples += Triple(g, su, StmtText, a.stmt.text)
      triples += Triple(g, su, ControlFlow,
        a.stmt match {
          case _: PyFor | _: PyWhile         => "loop"
          case _: PyIf                       => "conditional"
          case _: PyDef                      => "function"
          case _: PyImport | _: PyFromImport => "import"
          case _                             => "module"
        })
      a.defs.distinct.foreach(v => triples += Triple(g, su, VariableName, v))
      a.uses.distinct.foreach(v => triples += Triple(g, su, VariableName, v))

      // expression-granular code flow: a chain through every expr node
      (0 until a.exprNodes).foreach { ei =>
        val target = if (ei + 1 < a.exprNodes) exprUri(a.idx, ei + 1)
                     else if (a.idx + 1 < analyzed.size) stmtUri(a.idx + 1)
                     else s"$g/exit"
        triples += Triple(g, exprUri(a.idx, ei), CodeFlow, target)
      }

      // calls: per-prefix library-path expansion, parameter order + values
      exprsOf(a.stmt).flatMap(callsIn).foreach { call =>
        rawPath(call.func).foreach { path =>
          val segs = path.split('.')
          segs.indices.foreach { pi =>
            triples += Triple(g, su, LibraryCall, segs.take(pi + 1).mkString("."))
          }
          call.args.zipWithIndex.foreach { case (arg, ai) =>
            // WALA emits argument-position info per call-graph edge, i.e.
            // once per resolution candidate (= per path prefix here)
            segs.indices.foreach { pi =>
              triples += Triple(g,
                s"$su/call/${segs.take(pi + 1).mkString(".")}/arg$ai",
                ParamOrder, ai.toString)
            }
            val rendered = arg.value match {
              case PyStr(s)  => s"'$s'"
              case PyNum(n)  => n
              case PyName(n) => n
              case PyBool(b) => b.toString
              case other     => other.getClass.getSimpleName
            }
            triples += Triple(g, su, FuncParameter,
              arg.name.map(n => s"$n=$rendered").getOrElse(rendered))
          }
        }
      }

      // unverified column reads (subscript with a string literal)
      val subs = (a.stmt match {
        case PyAssign(ts, vs, _, _, _) => (ts ++ vs).flatMap(subscriptsIn)
        case PyExprStmt(e, _, _, _)    => subscriptsIn(e)
        case _                         => Seq.empty
      })
      subs.foreach {
        case PySubscript(_, PyStr(c)) => triples += Triple(g, su, ColumnRead, c)
        case _                        =>
      }
    }

    // ---- whole-program data flow: def → every transitive use, via a
    // reaching-definitions fixpoint over the statement sequence
    val n = analyzed.size
    val reaches = Array.fill(n)(mutable.Set.empty[Int]) // defs reaching stmt i
    var changed = true
    var rounds  = 0
    while (changed && rounds < n) {
      changed = false
      var i = 0
      val live = mutable.Map.empty[String, mutable.Set[Int]]
      while (i < n) {
        val a = analyzed(i)
        a.uses.foreach { u =>
          live.get(u).foreach { srcs =>
            srcs.foreach { s => if (reaches(i).add(s)) changed = true }
          }
        }
        a.defs.foreach { d =>
          val set = live.getOrElseUpdate(d, mutable.Set.empty)
          set += i
        }
        i += 1
      }
      rounds += 1
    }
    (0 until n).foreach { i =>
      // one edge per (reaching definition, use occurrence) — expression
      // granularity, as WALA's dataflow graph records it
      val useCount = math.max(1, analyzed(i).uses.size)
      reaches(i).toSeq.sorted.foreach { src =>
        if (src != i) (0 until useCount).foreach { uo =>
          triples += Triple(g, stmtUri(src), DataFlow, s"${stmtUri(i)}/use$uo")
        }
      }
    }

    triples.toSeq
  }
}
