package repro.substrate.rdf

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** RDF-star triple store — the GraphDB stand-in.
  *
  * Triples live in one DataFrame `(graph, subject, predicate, obj,
  * weight)`, which bulk construction writes and the whole-graph counts
  * (Tables 3 and 4) read. BGP queries are answered by the store's
  * [[LocalGraphIndex]], loaded from that DataFrame once, on first use.
  *
  * [[TripleStore.fromDataset]] hash-partitions the triples by predicate,
  * one partition per core. The full LiDS graph is a union of a few
  * hundred small partitions; built and loaded without the repartition,
  * it took 4–9 s longer (the `kg_serve` benchmark's set-up, 23–30 s).
  */
final class TripleStore private (val spark: SparkSession, val df: DataFrame) {

  /** The driver-side index that evaluates this store's BGPs. */
  lazy val index: LocalGraphIndex = LocalGraphIndex.fromTriples(
    df.collect().iterator.map { r =>
      Triple(r.getString(0), r.getString(1), r.getString(2), r.getString(3), r.getDouble(4))
    })

  /** Number of triples (edges). */
  def size: Long = df.count()

  /** Number of distinct nodes (subjects ∪ objects of IRI-ish edges). */
  def nodeCount: Long =
    df.select(col("subject").as("n"))
      .union(df.select(col("obj").as("n")))
      .distinct()
      .count()

  /** Number of distinct predicates (edge types). */
  def predicateCount: Long = df.select("predicate").distinct().count()

  /** Triple count per predicate — the Table 4 breakdown primitive. */
  def countByPredicate(): Map[String, Long] =
    df.groupBy("predicate").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap

  /** A new store containing this store's triples plus `more`. */
  def union(more: TripleStore): TripleStore =
    new TripleStore(spark, df.unionByName(more.df))

  /** Rough serialized size in bytes (N-Triples-style line lengths),
    * used for the Table 3 "Size" row.
    */
  def approxSerializedBytes: Long =
    df.select(
      sum(length(col("graph")) + length(col("subject")) +
        length(col("predicate")) + length(col("obj")) + lit(16L)).as("b"))
      .collect()(0).getLong(0)

  def cache(): TripleStore = { df.cache(); this }
  def unpersist(): Unit = df.unpersist()
}

object TripleStore {

  /** Build a store from local triples (driver-side corpus). */
  def apply(spark: SparkSession, triples: Seq[Triple]): TripleStore = {
    import spark.implicits._
    fromDataset(triples.toDS())
  }

  /** Build a store from a distributed Dataset of triples. */
  def fromDataset(triples: Dataset[Triple]): TripleStore = {
    val spark = triples.sparkSession
    val df = triples.toDF()
      .repartition(math.max(1, triples.sparkSession.sparkContext.defaultParallelism),
                   col("predicate"))
    new TripleStore(spark, df)
  }

  /** Build a store from a DataFrame already in triple layout. */
  def fromDF(spark: SparkSession, df: DataFrame): TripleStore = {
    val cols = Seq("graph", "subject", "predicate", "obj", "weight")
    require(cols.forall(df.columns.contains),
      s"triple DataFrame must have columns $cols, got ${df.columns.toSeq}")
    new TripleStore(spark, df.select(cols.map(col): _*))
  }
}
