package repro.core.discovery

import scala.collection.mutable

import repro.core.graph.Lids
import repro.substrate.rdf.{Term, TriplePattern, TripleStore}

/** Joinable-table and join-path discovery (§3.3, §5).
  *
  * Two tables are joinable when they share a content-similar column pair
  * (overlapping values). `get_path_to_table` finds join paths up to a
  * hop budget by BFS over the joinability adjacency derived from the
  * similarity edges.
  */
object JoinSearch {

  /** Adjacency: tableId → joinable neighbour tableIds with best weight. */
  def joinableAdjacency(store: TripleStore): Map[String, Seq[(String, Double)]] = {
    val rows = store.index.select(Seq(
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.ContentSimilarity), Term("?c2"),
                    weightVar = Some("w")),
      TriplePattern(Term("?c1"), Term.Lit(Lids.Prop.IsPartOf), Term("?t1")),
      TriplePattern(Term("?c2"), Term.Lit(Lids.Prop.IsPartOf), Term("?t2")),
    ))
    rows
      .groupMap(r => Lids.idOf(r.getAs[String]("t1")))(r =>
        (Lids.idOf(r.getAs[String]("t2")), r.getAs[Double]("w")))
      .map { case (t1, edges) => t1 -> neighbours(t1, edges) }
  }

  /** Top-k joinable tables for one table: one BGP anchored at the table,
    * so only its own columns' similarity edges are read.
    */
  def topKJoinable(store: TripleStore, tableId: String, k: Int): Seq[(String, Double)] =
    neighbours(tableId, UnionSearch.columnMatches(store.index, tableId, Lids.Prop.ContentSimilarity)
      .map { case (_, _, t2, w) => (t2, w) }).take(k)

  /** The tables other than `t1` among the `(table, weight)` edges, each
    * with its best weight, by weight descending, then tableId.
    */
  private def neighbours(t1: String, edges: Seq[(String, Double)]): Seq[(String, Double)] =
    edges.filter(_._1 != t1).groupMapReduce(_._1)(_._2)(math.max)
      .toSeq.sortBy { case (t2, w) => (-w, t2) }

  /** All join paths from `fromTable` to `toTable` within `hops` edges
    * (shortest first). Each path is a sequence of tableIds including
    * both endpoints.
    */
  def joinPaths(store: TripleStore, fromTable: String, toTable: String,
                hops: Int): Seq[Seq[String]] = {
    val adj = joinableAdjacency(store)
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    val queue = mutable.Queue(Seq(fromTable))
    while (queue.nonEmpty) {
      val path = queue.dequeue()
      if (path.last == toTable && path.size > 1) out += path
      else if (path.size <= hops) {
        adj.getOrElse(path.last, Seq.empty).foreach { case (next, _) =>
          if (!path.contains(next)) queue.enqueue(path :+ next)
        }
      }
    }
    out.toSeq.sortBy(p => (p.size, p.mkString("→")))
  }

  val MaxHops = 4

  /** Shortest join path between two tables within [[MaxHops]] edges, if one exists. */
  def shortestPath(store: TripleStore, fromTable: String, toTable: String): Option[Seq[String]] =
    joinPaths(store, fromTable, toTable, MaxHops).headOption
}
