package repro.substrate.python

/** Statement-level AST for the Python subset that data-science pipeline
  * scripts use. This plays the role of Python's `ast`/`astor` in the
  * paper's lightweight static code analysis (Alg. 1): everything the
  * abstraction needs — call targets, receivers, argument names/values,
  * variables read/written, subscripted columns, control blocks — is
  * representable here.
  */
object PyAst {

  sealed trait PyExpr
  final case class PyName(id: String)                           extends PyExpr
  final case class PyStr(value: String)                         extends PyExpr
  final case class PyNum(value: String)                         extends PyExpr
  final case class PyBool(value: Boolean)                       extends PyExpr
  final case class PyAttr(base: PyExpr, attr: String)           extends PyExpr
  final case class PyCall(func: PyExpr, args: Seq[PyArg])       extends PyExpr
  final case class PySubscript(base: PyExpr, index: PyExpr)     extends PyExpr
  final case class PyListLit(items: Seq[PyExpr])                extends PyExpr
  final case class PyTupleLit(items: Seq[PyExpr])               extends PyExpr
  final case class PyBinOp(left: PyExpr, op: String, right: PyExpr) extends PyExpr
  final case class PyOpaque(text: String)                       extends PyExpr

  /** A call argument, positional (`name = None`) or keyword. */
  final case class PyArg(name: Option[String], value: PyExpr)

  sealed trait PyStmt {
    def line: Int
    def indent: Int
    def text: String
  }
  final case class PyImport(module: String, alias: Option[String],
                            line: Int, indent: Int, text: String) extends PyStmt
  final case class PyFromImport(module: String, names: Seq[String],
                                line: Int, indent: Int, text: String) extends PyStmt
  final case class PyAssign(targets: Seq[PyExpr], values: Seq[PyExpr],
                            line: Int, indent: Int, text: String) extends PyStmt
  final case class PyExprStmt(expr: PyExpr,
                              line: Int, indent: Int, text: String) extends PyStmt
  final case class PyFor(target: String, iter: PyExpr,
                         line: Int, indent: Int, text: String) extends PyStmt
  final case class PyWhile(cond: PyExpr,
                           line: Int, indent: Int, text: String) extends PyStmt
  final case class PyIf(cond: PyExpr, kind: String, // "if" | "elif" | "else"
                        line: Int, indent: Int, text: String) extends PyStmt
  final case class PyDef(name: String, params: Seq[String],
                         line: Int, indent: Int, text: String) extends PyStmt
  final case class PyReturn(expr: Option[PyExpr],
                            line: Int, indent: Int, text: String) extends PyStmt

  /** All expressions a statement evaluates (assignment targets first). */
  def exprsOf(s: PyStmt): Seq[PyExpr] = s match {
    case PyAssign(ts, vs, _, _, _) => ts ++ vs
    case PyExprStmt(e, _, _, _)    => Seq(e)
    case PyFor(_, it, _, _, _)     => Seq(it)
    case PyWhile(c, _, _, _)       => Seq(c)
    case PyIf(c, _, _, _, _)       => Seq(c)
    case PyReturn(e, _, _, _)      => e.toSeq
    case _                         => Seq.empty
  }

  /** Folds `op` over every node of an expression tree in preorder: a
    * node before its children, the children left to right. This is the
    * one place that lists a node's children. It builds no list of nodes,
    * so the helpers below allocate little more than their results.
    */
  private def foldNodes[A](e: PyExpr, z: A)(op: (A, PyExpr) => A): A = {
    val acc = op(z, e)
    e match {
      case PyAttr(b, _)      => foldNodes(b, acc)(op)
      case PyCall(f, args)   =>
        args.foldLeft(foldNodes(f, acc)(op))((a, arg) => foldNodes(arg.value, a)(op))
      case PySubscript(b, i) => foldNodes(i, foldNodes(b, acc)(op))(op)
      case PyListLit(items)  => items.foldLeft(acc)((a, c) => foldNodes(c, a)(op))
      case PyTupleLit(items) => items.foldLeft(acc)((a, c) => foldNodes(c, a)(op))
      case PyBinOp(l, _, r)  => foldNodes(r, foldNodes(l, acc)(op))(op)
      case _                 => acc
    }
  }

  // The helpers below prepend what they collect; `reversed` restores
  // preorder, and copies nothing for the zero or one element most
  // expressions yield.
  private def reversed[A](xs: List[A]): List[A] =
    if (xs.isEmpty || xs.tail.isEmpty) xs else xs.reverse

  /** All variable names read by an expression. */
  def namesRead(e: PyExpr): Seq[String] =
    reversed(foldNodes(e, List.empty[String]) {
      case (ns, PyName(id)) => id :: ns
      case (ns, _)          => ns
    })

  /** All call expressions inside an expression tree (outermost first). */
  def callsIn(e: PyExpr): Seq[PyCall] =
    reversed(foldNodes(e, List.empty[PyCall]) {
      case (cs, c: PyCall) => c :: cs
      case (cs, _)         => cs
    })

  /** All subscript expressions inside an expression tree. */
  def subscriptsIn(e: PyExpr): Seq[PySubscript] =
    reversed(foldNodes(e, List.empty[PySubscript]) {
      case (ss, s: PySubscript) => s :: ss
      case (ss, _)              => ss
    })

  /** Number of nodes in an expression tree (G4C works per node). */
  def exprSize(e: PyExpr): Int = foldNodes(e, 0)((n, _) => n + 1)
}
