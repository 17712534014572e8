package repro.substrate.python

import scala.collection.mutable.ArrayBuffer

import PyAst._

/** Lexer + recursive-descent parser for the pipeline-script Python
  * subset: imports, (tuple) assignments, expression statements, `for` /
  * `while` / `if` / `elif` / `else` / `def` / `return` headers with
  * indentation-delimited blocks, and expressions built from names,
  * string/number/bool literals, attribute access, calls with positional
  * and keyword arguments, subscripts, lists, tuples, and binary
  * operators. Unparseable lines degrade to opaque expression statements
  * instead of failing — static analysis must be tolerant of code it
  * does not model (§3.1).
  */
object PyParser {

  // ------------------------------------------------------------------ lexer

  private sealed trait Tok
  private case class TName(s: String)  extends Tok
  private case class TNum(s: String)   extends Tok
  private case class TStr(s: String)   extends Tok
  private case class TOp(s: String)    extends Tok

  private val MultiOps =
    Seq("**", "//", "==", "!=", "<=", ">=", "->", "+=", "-=", "*=", "/=")

  private def lex(line: String): Option[Vector[Tok]] = {
    val out = ArrayBuffer.empty[Tok]
    var i   = 0
    val n   = line.length
    while (i < n) {
      val c = line(i)
      if (c == ' ' || c == '\t') i += 1
      else if (c == '\'' || c == '"') {
        val q = c
        val sb = new StringBuilder
        i += 1
        while (i < n && line(i) != q) {
          if (line(i) == '\\' && i + 1 < n) { sb.append(line(i + 1)); i += 2 }
          else { sb.append(line(i)); i += 1 }
        }
        if (i >= n) return None // unterminated string
        i += 1
        out += TStr(sb.toString)
      } else if (c.isDigit ||
                 (c == '.' && i + 1 < n && line(i + 1).isDigit)) {
        val start = i
        while (i < n && (line(i).isDigit || line(i) == '.' || line(i) == 'e' ||
               line(i) == 'E' || ((line(i) == '+' || line(i) == '-') &&
               i > start && (line(i - 1) == 'e' || line(i - 1) == 'E')))) i += 1
        out += TNum(line.substring(start, i))
      } else if (c.isLetter || c == '_') {
        val start = i
        while (i < n && (line(i).isLetterOrDigit || line(i) == '_')) i += 1
        out += TName(line.substring(start, i))
      } else {
        MultiOps.find(op => line.startsWith(op, i)) match {
          case Some(op) => out += TOp(op); i += op.length
          case None     => out += TOp(c.toString); i += 1
        }
      }
    }
    Some(out.toVector)
  }

  // ----------------------------------------------------------------- parser

  private final class P(toks: Vector[Tok]) {
    var pos = 0
    def peek: Option[Tok] = if (pos < toks.length) Some(toks(pos)) else None
    def next(): Tok = { val t = toks(pos); pos += 1; t }
    def eat(op: String): Boolean = peek match {
      case Some(TOp(`op`)) => pos += 1; true
      case _               => false
    }
    def expect(op: String): Unit =
      if (!eat(op)) throw new IllegalArgumentException(s"expected '$op' at $pos")

    /** expr (no top-level comma). */
    def expr(): PyExpr = {
      var left = unary()
      val binOps = Set("+", "-", "*", "/", "%", "**", "//", "==", "!=",
                       "<", ">", "<=", ">=", "&", "|")
      var go = true
      while (go) peek match {
        case Some(TOp(op)) if binOps(op) => next(); left = PyBinOp(left, op, unary())
        case Some(TName("and")) | Some(TName("or")) | Some(TName("in")) |
             Some(TName("not")) | Some(TName("is")) =>
          val TName(op) = next(): @unchecked
          left = PyBinOp(left, op, unary())
        case _ => go = false
      }
      left
    }

    private def unary(): PyExpr = peek match {
      case Some(TOp("-")) => next(); PyBinOp(PyNum("0"), "-", postfix())
      case Some(TName("not")) => next(); PyBinOp(PyBool(true), "not", postfix())
      case _ => postfix()
    }

    private def postfix(): PyExpr = {
      var e = atom()
      var go = true
      while (go) peek match {
        case Some(TOp(".")) =>
          next()
          next() match {
            case TName(a) => e = PyAttr(e, a)
            case t => throw new IllegalArgumentException(s"expected name after '.', got $t")
          }
        case Some(TOp("(")) =>
          next(); e = PyCall(e, argList())
        case Some(TOp("[")) =>
          next()
          val idx = if (eat("]")) PyOpaque("") else { val x = expr(); expect("]"); x }
          e = PySubscript(e, idx)
        case _ => go = false
      }
      e
    }

    private def argList(): Seq[PyArg] = {
      val args = ArrayBuffer.empty[PyArg]
      if (eat(")")) return args.toSeq
      var go = true
      while (go) {
        // keyword arg: NAME '=' expr (but not NAME '==')
        (peek, if (pos + 1 < toks.length) Some(toks(pos + 1)) else None) match {
          case (Some(TName(k)), Some(TOp("="))) =>
            pos += 2; args += PyArg(Some(k), expr())
          case _ =>
            args += PyArg(None, expr())
        }
        if (!eat(",")) go = false
      }
      expect(")")
      args.toSeq
    }

    private def atom(): PyExpr = next() match {
      case TName("True")  => PyBool(true)
      case TName("False") => PyBool(false)
      case TName("None")  => PyName("None")
      case TName(s)       => PyName(s)
      case TNum(s)        => PyNum(s)
      case TStr(s)        => PyStr(s)
      case TOp("(") =>
        val items = ArrayBuffer.empty[PyExpr]
        if (!eat(")")) {
          items += expr()
          while (eat(",")) if (peek.exists { case TOp(")") => false; case _ => true })
            items += expr()
          expect(")")
        }
        if (items.size == 1) items.head else PyTupleLit(items.toSeq)
      case TOp("[") =>
        val items = ArrayBuffer.empty[PyExpr]
        if (!eat("]")) {
          items += expr()
          while (eat(",")) items += expr()
          expect("]")
        }
        PyListLit(items.toSeq)
      case t => throw new IllegalArgumentException(s"unexpected token $t")
    }

    /** comma-separated exprs (assignment LHS / RHS). */
    def exprList(): Seq[PyExpr] = {
      val items = ArrayBuffer(expr())
      while (eat(",")) items += expr()
      items.toSeq
    }
  }

  // ------------------------------------------------------- statement parsing

  private def indentOf(line: String): Int = line.takeWhile(_ == ' ').length

  /** `line` without its comment: the code ends at the first `#` outside
    * a string literal, read as [[lex]] reads strings (a backslash
    * escapes the next character). A line with an unterminated string
    * has no comment.
    */
  private def withoutComment(line: String): String = {
    var quote = 0.toChar // the open string's quote, or 0 outside strings
    var i     = 0
    while (i < line.length) {
      val c = line(i)
      if (quote != 0) {
        if (c == '\\') i += 1
        else if (c == quote) quote = 0
      } else if (c == '#') return line.substring(0, i)
      else if (c == '\'' || c == '"') quote = c
      i += 1
    }
    line
  }

  /** Split a token list on a top-level `=` (not `==`, not inside
    * brackets); returns (lhs, rhs) token index or -1.
    */
  private def topLevelAssignIndex(toks: Vector[Tok]): Int = {
    var depth = 0
    toks.zipWithIndex.foreach {
      case (TOp("(") | TOp("["), _) => depth += 1
      case (TOp(")") | TOp("]"), _) => depth -= 1
      case (TOp("="), i) if depth == 0 => return i
      case _ =>
    }
    -1
  }

  /** Parse a full script into statements; a line with no code, comment
    * only or blank, yields none.
    */
  def parse(script: String): Seq[PyStmt] = {
    val out = ArrayBuffer.empty[PyStmt]
    script.linesIterator.zipWithIndex.foreach { case (raw, idx) =>
      val code = withoutComment(raw)
      if (code.trim.nonEmpty) out += parseLine(code, idx + 1, indentOf(code))
    }
    out.toSeq
  }

  /** Parse one logical line into a statement (opaque on failure); its
    * `text` excludes the line's comment.
    */
  def parseLine(text: String, lineNo: Int, indent: Int): PyStmt = {
    val trimmed = withoutComment(text).trim
    try {
      val toks = lex(trimmed).getOrElse(
        throw new IllegalArgumentException("lex failure"))
      if (toks.isEmpty) return PyExprStmt(PyOpaque(trimmed), lineNo, indent, trimmed)
      toks.head match {
        case TName("import") =>
          // import a.b.c [as x]
          val rest = toks.drop(1)
          val asIdx = rest.indexWhere { case TName("as") => true; case _ => false }
          val (modToks, alias) =
            if (asIdx >= 0)
              (rest.take(asIdx),
               rest.lift(asIdx + 1).collect { case TName(a) => a })
            else (rest, None)
          val module = modToks.collect {
            case TName(s) => s
            case TOp(".") => "."
          }.mkString
          PyImport(module, alias, lineNo, indent, trimmed)

        case TName("from") =>
          // from a.b import X, Y
          val rest = toks.drop(1)
          val impIdx = rest.indexWhere { case TName("import") => true; case _ => false }
          require(impIdx > 0, "malformed from-import")
          val module = rest.take(impIdx).collect {
            case TName(s) => s
            case TOp(".") => "."
          }.mkString
          val names = rest.drop(impIdx + 1).collect { case TName(s) => s }
          PyFromImport(module, names, lineNo, indent, trimmed)

        case TName("for") =>
          // for NAME in expr:
          val p = new P(toks.drop(1).dropRight(1)) // drop trailing ':'
          val tgt = p.next() match {
            case TName(s) => s
            case t        => throw new IllegalArgumentException(s"bad for target $t")
          }
          p.next() // 'in'
          PyFor(tgt, p.expr(), lineNo, indent, trimmed)

        case TName("while") =>
          val p = new P(toks.drop(1).dropRight(1))
          PyWhile(p.expr(), lineNo, indent, trimmed)

        case TName("if") | TName("elif") =>
          val kind = toks.head.asInstanceOf[TName].s
          val p = new P(toks.drop(1).dropRight(1))
          PyIf(p.expr(), kind, lineNo, indent, trimmed)

        case TName("else") =>
          PyIf(PyBool(true), "else", lineNo, indent, trimmed)

        case TName("def") =>
          // def name(p1, p2):
          val name = toks(1) match {
            case TName(s) => s
            case t        => throw new IllegalArgumentException(s"bad def name $t")
          }
          val params = toks.drop(3).collect { case TName(s) => s }
          PyDef(name, params.filterNot(_ == name), lineNo, indent, trimmed)

        case TName("return") =>
          val rest = toks.drop(1)
          val e = if (rest.isEmpty) None else Some(new P(rest).expr())
          PyReturn(e, lineNo, indent, trimmed)

        case _ =>
          val ai = topLevelAssignIndex(toks)
          if (ai > 0) {
            val lhs = new P(toks.take(ai)).exprList()
            val rhs = new P(toks.drop(ai + 1)).exprList()
            PyAssign(lhs, rhs, lineNo, indent, trimmed)
          } else {
            val p = new P(toks)
            val e = p.exprList()
            PyExprStmt(if (e.size == 1) e.head else PyTupleLit(e), lineNo, indent, trimmed)
          }
      }
    } catch {
      case _: Exception => PyExprStmt(PyOpaque(trimmed), lineNo, indent, trimmed)
    }
  }
}
