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
    val intern = new Interner
    new TripleStore(spark, triples.iterator.map(intern.triple).toArray)
  }

  /** Build a store from a distributed Dataset of triples, in partition
    * order, with one Spark job as the three-argument `apply` describes.
    * The Table 3/4 harnesses build their stores this way.
    */
  def fromDataset(triples: Dataset[Triple]): TripleStore =
    apply(triples.sparkSession, Nil, triples)

  /** Build a store from `local`'s triples followed by `distributed`'s, in
    * partition order; the LiDS graph is built this way. One Spark job
    * reads `distributed.rdd`: each task turns its partition into one
    * [[TripleBlock]], and the driver keeps one instance of each distinct
    * string of a block's dictionary, not of each triple. Over a Dataset
    * made from an RDD of triples (Alg. 1's), Spark's optimizer drops the
    * encode/decode pair, so no `Triple` is ever encoded.
    */
  def apply(spark: SparkSession, local: Seq[Triple],
            distributed: Dataset[Triple]): TripleStore = {
    val blocks = distributed.rdd.mapPartitions(ts => Iterator(TripleBlock(ts))).collect()
    val intern = new Interner
    new TripleStore(spark,
      (local.iterator.map(intern.triple) ++ blocks.iterator.flatMap(_.triples(intern))).toArray)
  }

  /** Keeps one instance of each distinct string: the first one seen. */
  private[rdf] final class Interner {
    private val canon = mutable.HashMap.empty[String, String]

    def apply(s: String): String = canon.getOrElseUpdate(s, s)

    def triple(t: Triple): Triple =
      Triple(apply(t.graph), apply(t.subject), apply(t.predicate), apply(t.obj), t.weight)
  }
}

/** One partition's triples, dictionary-coded: each distinct string once,
  * in first-seen order, then four dictionary ids per triple (graph,
  * subject, predicate, object) and one weight per triple.
  */
private[rdf] final class TripleBlock(strings: Array[String], ids: Array[Int],
                                     weights: Array[Double]) extends Serializable {

  /** The triples in order, each string replaced by `intern`'s instance. */
  def triples(intern: TripleStore.Interner): Iterator[Triple] = {
    val s = strings.map(intern(_))
    Iterator.tabulate(weights.length) { i =>
      Triple(s(ids(4 * i)), s(ids(4 * i + 1)), s(ids(4 * i + 2)), s(ids(4 * i + 3)), weights(i))
    }
  }
}

private[rdf] object TripleBlock {
  def apply(triples: Iterator[Triple]): TripleBlock = {
    val idOf    = mutable.HashMap.empty[String, Int]
    val strings = mutable.ArrayBuffer.empty[String]
    val ids     = mutable.ArrayBuilder.make[Int]
    val weights = mutable.ArrayBuilder.make[Double]
    def id(s: String): Int = idOf.getOrElseUpdate(s, { strings += s; strings.size - 1 })
    triples.foreach { t =>
      ids += id(t.graph); ids += id(t.subject); ids += id(t.predicate); ids += id(t.obj)
      weights += t.weight
    }
    new TripleBlock(strings.toArray, ids.result(), weights.result())
  }
}
