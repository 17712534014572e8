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

  /** All variable names read by an expression. */
  def namesRead(e: PyExpr): Seq[String] = e match {
    case PyName(id)         => Seq(id)
    case PyAttr(b, _)       => namesRead(b)
    case PyCall(f, args)    => namesRead(f) ++ args.flatMap(a => namesRead(a.value))
    case PySubscript(b, i)  => namesRead(b) ++ namesRead(i)
    case PyListLit(items)   => items.flatMap(namesRead)
    case PyTupleLit(items)  => items.flatMap(namesRead)
    case PyBinOp(l, _, r)   => namesRead(l) ++ namesRead(r)
    case _                  => Seq.empty
  }

  /** All call expressions inside an expression tree (outermost first). */
  def callsIn(e: PyExpr): Seq[PyCall] = e match {
    case c @ PyCall(f, args) =>
      c +: (callsIn(f) ++ args.flatMap(a => callsIn(a.value)))
    case PyAttr(b, _)      => callsIn(b)
    case PySubscript(b, i) => callsIn(b) ++ callsIn(i)
    case PyListLit(items)  => items.flatMap(callsIn)
    case PyTupleLit(items) => items.flatMap(callsIn)
    case PyBinOp(l, _, r)  => callsIn(l) ++ callsIn(r)
    case _                 => Seq.empty
  }

  /** All subscript expressions inside an expression tree. */
  def subscriptsIn(e: PyExpr): Seq[PySubscript] = e match {
    case s @ PySubscript(b, i) => s +: (subscriptsIn(b) ++ subscriptsIn(i))
    case PyAttr(b, _)          => subscriptsIn(b)
    case PyCall(f, args)       => subscriptsIn(f) ++ args.flatMap(a => subscriptsIn(a.value))
    case PyListLit(items)      => items.flatMap(subscriptsIn)
    case PyTupleLit(items)     => items.flatMap(subscriptsIn)
    case PyBinOp(l, _, r)      => subscriptsIn(l) ++ subscriptsIn(r)
    case _                     => Seq.empty
  }

  /** Number of nodes in an expression tree (G4C works per node). */
  def exprSize(e: PyExpr): Int = e match {
    case PyAttr(b, _)      => 1 + exprSize(b)
    case PyCall(f, args)   => 1 + exprSize(f) + args.map(a => exprSize(a.value)).sum
    case PySubscript(b, i) => 1 + exprSize(b) + exprSize(i)
    case PyListLit(items)  => 1 + items.map(exprSize).sum
    case PyTupleLit(items) => 1 + items.map(exprSize).sum
    case PyBinOp(l, _, r)  => 1 + exprSize(l) + exprSize(r)
    case _                 => 1
  }
}
