package repro.substrate.ml

import scala.util.Random

import repro.SparkSpec

/** Vector index, one-layer GNN, resource governor, task evaluator. */
class MlSubstrateSpec extends SparkSpec {
  import spark.implicits._

  // ----------------------------------------------------------- VectorIndex
  test("vector index returns exact top-k by cosine") {
    val idx = new VectorIndex(3)
    idx.add("a", Array(1.0, 0.0, 0.0))
    idx.add("b", Array(0.9, 0.1, 0.0))
    idx.add("c", Array(0.0, 1.0, 0.0))
    val top = idx.topK(Array(1.0, 0.0, 0.0), 2)
    assert(top.map(_._1) == Seq("a", "b"))
    assert(math.abs(top.head._2 - 1.0) < 1e-9)
  }
  test("vector index nearest and vectorOf") {
    val idx = new VectorIndex(2)
    idx.add("x", Array(1.0, 0.0))
    idx.add("y", Array(0.0, 1.0))
    assert(idx.nearest(Array(0.1, 0.9)).map(_._1).contains("y"))
    assert(idx.vectorOf("x").get.sameElements(Array(1.0, 0.0)))
    assert(idx.vectorOf("nope").isEmpty)
    assert(idx.size == 2)
  }
  test("vector index rejects wrong dimensionality") {
    val idx = new VectorIndex(2)
    intercept[IllegalArgumentException] { idx.add("bad", Array(1.0)) }
  }
  test("empty index nearest is None") {
    assert(new VectorIndex(2).nearest(Array(1.0, 0.0)).isEmpty)
  }

  // ----------------------------------------------------------- OneLayerGnn
  test("GNN learns a linearly separable 3-class problem") {
    val rng = new Random(3)
    val feats = Array.tabulate(300) { i =>
      val c = i % 3
      Array.tabulate(10)(d => (if (d == c) 3.0 else 0.0) + rng.nextGaussian() * 0.3)
    }
    val labels = Array.tabulate(300)(_ % 3)
    val gnn = new OneLayerGnn(10, 3, epochs = 400, seed = 1)
    gnn.fit(feats, labels)
    val acc = feats.indices.count(i => gnn.predict(feats(i)) == labels(i)).toDouble / 300
    assert(acc > 0.95, s"train accuracy $acc")
  }
  test("GNN probabilities sum to 1") {
    val gnn = new OneLayerGnn(4, 3, epochs = 10)
    gnn.fit(Array(Array(1.0, 0.0, 0.0, 0.0)), Array(0))
    val p = gnn.predictProba(Array(0.5, 0.5, 0.0, 0.0))
    assert(math.abs(p.sum - 1.0) < 1e-9)
  }
  test("GNN training is deterministic under a fixed seed") {
    def train() = {
      val g = new OneLayerGnn(3, 2, epochs = 50, seed = 9)
      g.fit(Array(Array(1.0, 0, 0), Array(0, 1.0, 0)), Array(0, 1))
      g.predictProba(Array(1.0, 0, 0)).toSeq
    }
    assert(train() == train())
  }

  // ------------------------------------------------------ ResourceGovernor
  test("governor charges until the memory budget trips") {
    val gov = new ResourceGovernor(1000, 60000)
    gov.charge(600)
    assert(gov.usedBytes == 600)
    intercept[ResourceGovernor.OutOfMemoryBudget] { gov.charge(500) }
  }
  test("governor ensureFits does not accumulate") {
    val gov = new ResourceGovernor(1000, 60000)
    gov.ensureFits(900)
    gov.ensureFits(900)
    assert(gov.usedBytes == 0)
    intercept[ResourceGovernor.OutOfMemoryBudget] { gov.ensureFits(1100) }
  }
  test("governor time budget trips") {
    val gov = new ResourceGovernor(1000, 0)
    Thread.sleep(5)
    intercept[ResourceGovernor.TimeBudgetExceeded] { gov.checkTime() }
  }
  test("governed run classifies outcomes") {
    import ResourceGovernor.{Ok, Oom, Timeout}
    assert(ResourceGovernor.run(100, 1000)(_ => 42)
      match { case Ok(42, _, _) => true; case _ => false })
    assert(ResourceGovernor.run(10, 1000)(g => g.charge(100))
      match { case Oom(_) => true; case _ => false })
    assert(ResourceGovernor.run(100, 0) { g => Thread.sleep(5); g.checkTime() }
      match { case Timeout(_) => true; case _ => false })
  }

  // --------------------------------------------------------- TaskEvaluator
  private lazy val separable = {
    val rng = new Random(11)
    spark.createDataFrame((1 to 400).map { i =>
      val c = i % 2
      (c * 4.0 + rng.nextGaussian(), c * -3.0 + rng.nextGaussian(), s"c$c")
    }).toDF("f0", "f1", "label").cache()
  }
  private val forest = TaskEvaluator.RandomForest(numTrees = 50, maxDepth = 8)
  test("RF cross-validation scores a separable problem highly") {
    val f1 = TaskEvaluator.crossValidate(separable, "label", Seq("f0", "f1"), forest, k = 3)
    assert(f1 > 90.0, s"F1 $f1")
  }
  test("SGD cross-validation scores a separable problem highly") {
    val acc = TaskEvaluator.crossValidate(separable, "label", Seq("f0", "f1"),
      TaskEvaluator.SoftmaxSgd, k = 3)
    assert(acc > 90.0, s"accuracy $acc")
  }
  test("degenerate input scores 0 (paper's 00.00 baseline rows)") {
    val tiny = separable.limit(3)
    assert(TaskEvaluator.crossValidate(tiny, "label", Seq("f0", "f1"), forest) == 0.0)
    val oneClass = separable.filter($"label" === "c0")
    assert(TaskEvaluator.crossValidate(oneClass, "label", Seq("f0", "f1"), forest) == 0.0)
  }
  test("rows with nulls are dropped before scoring") {
    val withNulls = separable.withColumn("f0",
      org.apache.spark.sql.functions.when($"f1" > 0, null).otherwise($"f0"))
    val f1 = TaskEvaluator.crossValidate(withNulls, "label", Seq("f0", "f1"), forest, k = 3)
    assert(f1 >= 0.0) // must not throw
  }
}
