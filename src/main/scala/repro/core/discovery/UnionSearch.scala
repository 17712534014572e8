package repro.core.discovery

import repro.core.graph.Lids
import repro.substrate.rdf.{LocalGraphIndex, Term, TriplePattern}

/** Unionable-table discovery over the LiDS graph (§3.3, §6.1).
  *
  * Two tables are unionable when one or more column pairs carry label or
  * content similarity edges; the table score combines how many of the
  * query table's columns match and how strongly (mean over query columns
  * of the best similarity to the candidate). Queries are BGPs over the
  * similarity + hierarchy predicates, answered by the store's
  * [[LocalGraphIndex]] — the SPARQL-against-built-in-indices path the
  * paper credits for its query speed, and whose latency Table 2 reports.
  */
object UnionSearch {

  /** Column-level matches: (queryColumnId, candidateColumnId,
    * candidateTableId, weight) for one predicate.
    */
  def columnMatches(index: LocalGraphIndex, tableId: String,
                    predicate: String): Seq[(String, String, String, Double)] = {
    val tUri = Lids.ResourcePrefix + tableId
    index.select(Seq(
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(tUri)),
      TriplePattern(Term("?c1"), Term.Lit(predicate), Term("?c2"), weightVar = Some("w")),
      TriplePattern(Term("?c2"), Term.Lit(Lids.Prop.IsPartOf), Term("?t2")),
    )).map { r =>
      (Lids.idOf(r.getAs[String]("c1")),
       Lids.idOf(r.getAs[String]("c2")),
       Lids.idOf(r.getAs[String]("t2")),
       r.getAs[Double]("w"))
    }
  }

  /** Number of columns of a table. */
  def columnCount(index: LocalGraphIndex, tableId: String): Int = {
    val tUri = Lids.ResourcePrefix + tableId
    index.select(Seq(
      TriplePattern(Term("?c"), Term.Lit(Lids.Prop.IsPartOf), Term.Lit(tUri)),
    )).distinct.size
  }

  /** Top-k unionable tables for a query table, with scores in [0, 1]. */
  def topKUnionable(index: LocalGraphIndex, tableId: String, k: Int): Seq[(String, Double)] = {
    val matches =
      columnMatches(index, tableId, Lids.Prop.LabelSimilarity) ++
        columnMatches(index, tableId, Lids.Prop.ContentSimilarity)
    if (matches.isEmpty) return Seq.empty
    val nCols = math.max(1, columnCount(index, tableId)).toDouble
    matches
      .groupBy(_._3) // candidate table
      .map { case (t2, ms) =>
        // per query column: best similarity to this candidate
        val perQueryCol = ms.groupBy(_._1).map { case (_, g) => g.map(_._4).max }
        t2 -> perQueryCol.sum / nCols
      }
      .toSeq
      .sortBy { case (t2, s) => (-s, t2) }
      .take(k)
  }
}
