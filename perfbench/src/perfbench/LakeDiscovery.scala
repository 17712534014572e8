package perfbench

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.discovery.KglidsDiscovery
import repro.core.graph.SchemaBuilder
import repro.core.profile.DataProfiler
import repro.data.{Lake, LakeBench}
import repro.substrate.rdf.{LocalGraphIndex, TripleStore}

/** `lake_discovery`, the first part of `kg_build`: the write path of the
  * dataset graph, then the read path of the served index (Table 2).
  *
  * Set-up generates a lake of the santos_lite_large shape and stages its
  * cells as a cached DataFrame. Each iteration preprocesses the staged
  * cells (profile → Alg. 3 → store → index load), which is `batch_s`, and
  * then runs rounds of one top-k union query per lake table in a seeded
  * order, which are the calls.
  */
final class LakeDiscovery(spark: SparkSession, seed: Long, ops: Ops) extends Workload {
  import LakeDiscovery._

  val name         = "lake_discovery"
  val batchName    = "prep_s"
  val callName     = "union_ms"
  val setupRepeats = 3

  val spec: LakeBench.Spec = LakeBench.santosLiteLarge.copy(
    name = "lake", nFamilies = Families, baseRows = BaseRows, nQuery = Families,
    seed = Main.derive(seed, "lake"))
  private val k = spec.partitionsPerFamily - 1

  private var lake: Lake                = _
  private var cells: DataFrame          = _
  private var queryOrder: Seq[String]   = Nil
  private var edgeCounts                = Option.empty[Map[String, Long]]
  private val precision                 = mutable.ArrayBuffer.empty[Double]
  private val recall                    = mutable.ArrayBuffer.empty[Double]

  def setup(): Unit = {
    lake = LakeBench.generate(spec)
    cells = lake.cells(spark).cache()
    cells.count()
    queryOrder = new Random(Main.derive(seed, "queries")).shuffle(lake.tables.map(_.name))
  }

  def release(): Unit = cells.unpersist(blocking = true)

  /** Preprocessing with each phase run on its own, on cached inputs. */
  private def tracedPreprocess(tr: Tracer): KglidsDiscovery.Prepared = {
    val profiles = tr.span("profile") {
      val p = DataProfiler.profileCells(spark, cells).cache()
      tr.count("profile.columns", p.count().toDouble)
      p
    }
    val meta = tr.span("graph.metadata") {
      val m = SchemaBuilder.metadataGraph(spark, profiles).cache(); m.count(); m
    }
    val sim = tr.span("graph.pairs") {
      val s = SchemaBuilder.similarityGraph(spark, profiles).cache()
      tr.count("graph.similarity_edges", s.count().toDouble)
      s
    }
    tr.count("graph.pairs_compared",
      pairsCompared(profiles.collect().toSeq.map(p => (p.tableId, p.fgType))).toDouble)
    val store = tr.span("rdf.store_build") {
      val st = TripleStore.fromDataset(meta.union(sim)).cache()
      tr.count("rdf.triples", st.size.toDouble)
      st
    }
    val index = tr.span("rdf.index_load")(LocalGraphIndex.fromStore(store))
    Seq(profiles, meta, sim).foreach(_.unpersist())
    KglidsDiscovery.Prepared(store, index)
  }

  def iteration(tr: Tracer): Sample = {
    val (prepared, prepMs) = ops.timed("preprocess") {
      if (tr.enabled) tracedPreprocess(tr) else KglidsDiscovery.preprocessCells(spark, cells)
    } { p =>
      val counts = p.store.countByPredicate()
      val stable = edgeCounts.forall(_ == counts)
      if (edgeCounts.isEmpty) edgeCounts = Some(counts)
      if (stable) Nil else Seq(s"edge counts per predicate changed: $counts vs ${edgeCounts.get}")
    }
    val calls = prepared.toSeq.flatMap { p =>
      var hitsP, hitsR = 0.0
      val first = mutable.Map.empty[String, Seq[(String, Double)]]
      val ms = (1 to WarmRounds + QueryRounds).flatMap(round => queryOrder.map { t =>
        val (res, ms) = ops.timed("queryUnionable") {
          if (round <= WarmRounds) KglidsDiscovery.queryUnionable(p, s"${lake.name}/$t", k)
          else tr.span("discovery.union")(KglidsDiscovery.queryUnionable(p, s"${lake.name}/$t", k))
        } { res =>
          if (first.getOrElseUpdate(t, res) == res) Nil else Seq(s"$t answered $res, before ${first(t)}")
        }
        ms
      }).drop(WarmRounds * queryOrder.size)
      queryOrder.foreach { t =>
        val truth = lake.unionableGroundTruth(t)
        val got   = first.getOrElse(t, Nil).map(_._1.stripPrefix(s"${lake.name}/")).toSet
        hitsP += got.count(truth).toDouble / k
        hitsR += got.count(truth).toDouble / math.max(1, truth.size)
      }
      precision += hitsP / queryOrder.size
      recall += hitsR / queryOrder.size
      ops.verify("P@k/R@k", precision.last > Floor && recall.last > Floor,
        f"P@k ${precision.last}%.3f, R@k ${recall.last}%.3f at or below $Floor")
      p.store.unpersist()
      ms
    }
    Sample(prepMs / 1e3, calls)
  }

  override def layerMetrics(tr: Tracer): Map[String, Double] = {
    val pairs = Stats.median(tr.countsOf("graph.pairs_compared"))
    val edges = Stats.median(tr.countsOf("graph.similarity_edges"))
    Map("graph.edge_yield" -> edges / (2 * pairs))
  }

  override def report(): Seq[String] = Seq(
    s"lake: ${lake.tables.size} tables, ${lake.totalColumns} columns, k=$k",
    s"P@k ${Stats.describe(precision.toSeq, "")}",
    s"R@k ${Stats.describe(recall.toSeq, "")}",
    s"edges per predicate: ${edgeCounts.getOrElse(Map.empty).toSeq.sorted.mkString(", ")}")
}

object LakeDiscovery {

  /** Families of 8 unionable tables each, and base rows per family.
    * santos_lite_large has 75 families of 500 rows; a run should stay
    * well under a minute, so the lake here is smaller.
    */
  val Families = 16
  val BaseRows = 100

  /** Rounds of one union query per table, per iteration: the first
    * `WarmRounds` compile the query path for this index and are not timed;
    * the rest give enough calls for a p95.
    */
  val WarmRounds  = 20
  val QueryRounds = 5

  /** The recall floor of the Table 2 bench. */
  val Floor = 0.2

  /** Column pairs the Alg. 3 pair phase compares: unordered pairs of
    * columns with the same fine-grained type in different tables.
    * Per type: C(n, 2) minus, per table, C(n_table, 2).
    */
  def pairsCompared(columns: Seq[(String, String)]): Long = {
    def c2(n: Long) = n * (n - 1) / 2
    columns.groupBy(_._2).values.map { sameType =>
      c2(sameType.size.toLong) - sameType.groupBy(_._1).values.map(t => c2(t.size.toLong)).sum
    }.sum
  }
}
