package repro.substrate.rdf

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}

/** The BGP evaluator of the LiDS graph: a driver-side index over a
  * store's triple array, which it shares rather than copies — the
  * stand-in for GraphDB's built-in indexes that make the paper's SPARQL
  * queries millisecond-fast (§6.1.2).
  *
  * Triples are indexed by predicate → subject (PSO) and predicate →
  * object (POS), the predicate-keyed permutations of RDF-3X (Neumann &
  * Weikum, VLDB 2008). A BGP is evaluated pattern by pattern in the order
  * written: each solution so far is extended by the triples that match
  * the next pattern once the solution's bindings are substituted into it,
  * found through PSO when the subject is known, through POS when the
  * object is, and by a scan of the predicate (of every triple, for an
  * unbound predicate) otherwise; the remaining positions, the named graph
  * and the weight are checked per triple. This is an index nested-loop
  * join, so the solutions are those of a hash join on the shared
  * variables, or of a cross join when patterns share none, as a bag.
  */
final class LocalGraphIndex private[rdf] (triples: Array[Triple]) {

  private val pso = byPredicate(_.subject)
  private val pos = byPredicate(_.obj)

  private def byPredicate(key: Triple => String): Map[String, Map[String, Array[Triple]]] =
    triples.groupBy(_.predicate).map { case (p, ts) => p -> ts.groupBy(key) }

  /** Evaluate a BGP. Each row has the schema [[LocalGraphIndex.schemaOf]]
    * gives: one column per variable, in order of first appearance.
    */
  def select(patterns: Seq[TriplePattern]): IndexedSeq[Row] = {
    val schema = LocalGraphIndex.schemaOf(patterns)
    val slot   = schema.fieldNames.zipWithIndex.toMap
    patterns
      .foldLeft(IndexedSeq(new Array[Any](slot.size))) { (solutions, p) =>
        solutions.flatMap(extend(_, p, slot))
      }
      .map(new GenericRowWithSchema(_, schema))
  }

  /** The solutions that extend `row` by one triple matching `p`. */
  private def extend(row: Array[Any], p: TriplePattern,
                     slot: Map[String, Int]): Iterator[Array[Any]] = {
    def known(t: Term): Option[String] = t match {
      case Term.Lit(v) => Some(v)
      case Term.Var(n) => Option(row(slot(n))).map(_.asInstanceOf[String])
    }
    val candidates = known(p.p) match {
      case None => triples.iterator
      case Some(pred) =>
        (known(p.s), known(p.o)) match {
          case (Some(s), _) => pso.get(pred).flatMap(_.get(s)).iterator.flatten
          case (_, Some(o)) => pos.get(pred).flatMap(_.get(o)).iterator.flatten
          case _            => pso.get(pred).iterator.flatMap(_.valuesIterator.flatten)
        }
    }
    // Binding a variable already bound (earlier, or at an earlier position
    // of this pattern) checks equality instead.
    def bind(out: Array[Any], t: Term, value: Any): Boolean = t match {
      case Term.Lit(v) => v == value
      case Term.Var(n) =>
        val i = slot(n)
        if (out(i) == null) { out(i) = value; true } else out(i) == value
    }
    candidates.flatMap { t =>
      val out = row.clone()
      val ok = bind(out, p.s, t.subject) && bind(out, p.p, t.predicate) &&
        bind(out, p.o, t.obj) && p.graph.forall(bind(out, _, t.graph)) &&
        p.weightVar.forall(w => bind(out, Term.Var(w), t.weight))
      if (ok) Some(out) else None
    }
  }
}

object LocalGraphIndex {

  /** The store's index: built once per store, on first use. The same
    * as `store.index`; kept because the benchmark's traced lake
    * preprocessing times the index load through it.
    */
  def fromStore(store: TripleStore): LocalGraphIndex = store.index

  /** The binding schema of a BGP: one column per variable, in order of
    * first appearance (subject, predicate, object, graph, then weight
    * within a pattern); term variables are strings, weight variables
    * doubles. Rejects an empty BGP, a pattern that binds no variable, and
    * a name used both as a term and as a weight variable.
    */
  private[rdf] def schemaOf(patterns: Seq[TriplePattern]): StructType = {
    require(patterns.nonEmpty, "empty BGP")
    val termVars = patterns.flatMap { p =>
      val vars = (Seq(p.s, p.p, p.o) ++ p.graph).collect { case Term.Var(n) => n }
      require(vars.nonEmpty || p.weightVar.nonEmpty, s"pattern binds no variables: $p")
      vars
    }.toSet
    val fields = patterns.flatMap { p =>
      (Seq(p.s, p.p, p.o) ++ p.graph).collect { case Term.Var(n) => StructField(n, StringType) } ++
        p.weightVar.map { w =>
          require(!termVars(w), s"?$w binds both a term and a weight")
          StructField(w, DoubleType, nullable = false)
        }
    }
    StructType(fields.distinctBy(_.name))
  }
}
