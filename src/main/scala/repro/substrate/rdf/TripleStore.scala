package repro.substrate.rdf

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import org.apache.spark.sql.{Dataset, SparkSession}

/** RDF-star triple store — the GraphDB stand-in.
  *
  * The graph is one driver-side bag of triples, equal strings kept once
  * (the LiDS graph repeats each IRI across many triples). BGP queries
  * are answered by the store's [[LocalGraphIndex]], built over that same
  * array on first use; the whole-graph counts (Tables 3 and 4) scan it.
  * Duplicate triples are kept, and counted, as in any bag.
  */
final class TripleStore private (val spark: SparkSession, array: Array[Triple]) {

  /** The triples, in the order the store was built from; a read-only
    * view of the store's array, not a copy.
    */
  def triples: IndexedSeq[Triple] = ArraySeq.unsafeWrapArray(array)

  /** The driver-side index that evaluates this store's BGPs. */
  lazy val index: LocalGraphIndex = new LocalGraphIndex(array)

  /** Number of triples (edges). */
  def size: Long = array.length.toLong

  /** Number of distinct nodes: subjects ∪ objects, literal objects
    * included.
    */
  def nodeCount: Long = {
    val nodes = mutable.HashSet.empty[String]
    array.foreach { t => nodes += t.subject; nodes += t.obj }
    nodes.size.toLong
  }

  /** Number of distinct predicates (edge types). */
  def predicateCount: Long = countByPredicate().size.toLong

  /** Triple count per predicate — the Table 4 breakdown primitive. */
  def countByPredicate(): Map[String, Long] =
    array.groupMapReduce(_.predicate)(_ => 1L)(_ + _)

  /** Rough serialized size in bytes (N-Triples-style line lengths, in
    * characters), used for the Table 3 "Size" row.
    */
  def approxSerializedBytes: Long = {
    def chars(s: String) = s.codePointCount(0, s.length).toLong
    array.iterator.map(t =>
      chars(t.graph) + chars(t.subject) + chars(t.predicate) + chars(t.obj) + 16L).sum
  }

  /** A no-op: the triples are always on the driver. Kept, with
    * [[unpersist]], because the benchmark's store-building code calls
    * both.
    */
  def cache(): TripleStore = this

  /** A no-op: the store holds no Spark storage. */
  def unpersist(): Unit = ()
}

object TripleStore {

  /** Build a store from local triples (driver-side corpus); runs no
    * Spark job.
    */
  def apply(spark: SparkSession, triples: Seq[Triple]): TripleStore = {
    val canon = mutable.HashMap.empty[String, String]
    def c(s: String): String = canon.getOrElseUpdate(s, s)
    new TripleStore(spark, triples.iterator.map { t =>
      Triple(c(t.graph), c(t.subject), c(t.predicate), c(t.obj), t.weight)
    }.toArray)
  }

  /** Build a store from a distributed Dataset of triples: one collect.
    * The Table 3/4 harnesses build their stores this way; the LiDS graph
    * is built with [[apply]].
    */
  def fromDataset(triples: Dataset[Triple]): TripleStore =
    apply(triples.sparkSession, triples.collect().toSeq)
}
