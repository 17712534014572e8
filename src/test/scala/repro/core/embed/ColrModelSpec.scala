package repro.core.embed

import scala.util.Random

import repro.SparkSpec
import repro.core.profile.{ColumnStats, TypeInference}
import repro.core.profile.FineGrainedType._

/** CoLR embedding invariances (§3.2): overlap, distribution shape,
  * scale invariance.
  */
class ColrModelSpec extends SparkSpec {

  private def cos(a: Array[Double], b: Array[Double]) = EmbeddingOps.cosine(a, b)
  private val rng = new Random(1)

  test("embedding has the CoLR dimensionality") {
    assert(ColrModel.embed(Float, Seq("1.5", "2.5")).length == ColrModel.Dim)
  }
  test("empty sample embeds to zero") {
    assert(ColrModel.embed(Str, Seq.empty).forall(_ == 0.0))
    assert(ColrModel.embed(Float, Seq(null, " ")).forall(_ == 0.0))
  }
  test("a blank cell counts nowhere: not in the true ratio, the type or the CoLR vector") {
    val withBlank = Seq("true", "true", " ", "false")
    val without   = Seq("true", "true", "false")
    assert(ColumnStats.trueRatio(withBlank) == 2.0 / 3)
    assert(TypeInference.infer(withBlank) == Boolean)
    assert(ColrModel.embed(Boolean, withBlank).sameElements(ColrModel.embed(Boolean, without)))
  }
  test("identical numeric columns embed identically") {
    val v = Seq("1.5", "2.0", "3.25", "0.5")
    assert(cos(ColrModel.embed(Float, v), ColrModel.embed(Float, v)) > 0.999)
  }
  test("overlapping numeric columns beat disjoint ones") {
    val a  = (1 to 200).map(i => (i * 0.5).toString)
    val b  = (50 to 250).map(i => (i * 0.5).toString)   // heavy raw overlap
    val c  = (1 to 200).map(i => (i * 0.37 + 1000).toString) // disjoint, diff shape
    val ea = ColrModel.embed(Float, a)
    assert(cos(ea, ColrModel.embed(Float, b)) > cos(ea, ColrModel.embed(Float, c)))
  }
  test("scale invariance: area_sq_ft vs area_sq_m (same variable, rescaled)") {
    val sqft = (1 to 300).map(_ => math.exp(rng.nextGaussian()) * 1000.0)
    val sqm  = sqft.map(_ * 0.092903)
    val other = (1 to 300).map(_ => rng.nextDouble() * 10)   // different shape
    val eFt = ColrModel.embed(Float, sqft.map(v => f"$v%.3f"))
    val eM  = ColrModel.embed(Float, sqm.map(v => f"$v%.3f"))
    val eO  = ColrModel.embed(Float, other.map(v => f"$v%.3f"))
    assert(cos(eFt, eM) > 0.3, "rescaled same-variable columns must stay similar")
    assert(cos(eFt, eM) > cos(eFt, eO))
  }
  test("distribution shape separates numeric families") {
    val gauss1 = (1 to 400).map(_ => rng.nextGaussian() * 2 + 10)
    val gauss2 = (1 to 400).map(_ => rng.nextGaussian() * 2 + 10)
    val expo   = (1 to 400).map(_ => -math.log(rng.nextDouble()) * 10)
    val eg1 = ColrModel.embed(Float, gauss1.map(v => f"$v%.4f"))
    val eg2 = ColrModel.embed(Float, gauss2.map(v => f"$v%.4f"))
    val ee  = ColrModel.embed(Float, expo.map(v => f"$v%.4f"))
    assert(cos(eg1, eg2) > cos(eg1, ee))
  }
  test("text columns with shared values are similar") {
    val a = Seq("alpha", "beta", "gamma", "delta", "epsilon")
    val b = Seq("alpha", "beta", "gamma", "zeta", "eta")
    val c = Seq("one", "two", "three", "four", "five")
    val ea = ColrModel.embed(Str, a)
    assert(cos(ea, ColrModel.embed(Str, b)) > cos(ea, ColrModel.embed(Str, c)))
  }
  test("text similarity is token-aware, not only exact-value") {
    val a = Seq("great product quality", "really nice product")
    val b = Seq("nice product indeed", "great quality overall")
    val c = Seq("fiscal year report", "quarterly tax filing")
    val ea = ColrModel.embed(NaturalLanguage, a)
    assert(cos(ea, ColrModel.embed(NaturalLanguage, b)) >
           cos(ea, ColrModel.embed(NaturalLanguage, c)))
  }
  test("date columns from the same period are similar") {
    def dates(yBase: Int, n: Int, r: Random) =
      (1 to n).map(_ => f"${yBase + r.nextInt(3)}%04d-${1 + r.nextInt(12)}%02d-${1 + r.nextInt(28)}%02d")
    val a = dates(2015, 200, new Random(2))
    val b = dates(2015, 200, new Random(3))
    val c = dates(1982, 200, new Random(4))
    val ea = ColrModel.embed(Date, a)
    assert(cos(ea, ColrModel.embed(Date, b)) > cos(ea, ColrModel.embed(Date, c)))
  }
  test("boolean embeddings reflect true-ratio") {
    val mostlyTrue  = Seq.fill(90)("true") ++ Seq.fill(10)("false")
    val mostlyTrue2 = Seq.fill(85)("true") ++ Seq.fill(15)("false")
    val mostlyFalse = Seq.fill(10)("true") ++ Seq.fill(90)("false")
    val e1 = ColrModel.embed(Boolean, mostlyTrue)
    assert(cos(e1, ColrModel.embed(Boolean, mostlyTrue2)) >
           cos(e1, ColrModel.embed(Boolean, mostlyFalse)))
  }
  test("embeddings are deterministic") {
    val v = (1 to 50).map(i => s"val$i")
    assert(ColrModel.embed(Str, v).sameElements(ColrModel.embed(Str, v)))
  }
  test("embedding norm is ~1 for non-empty input") {
    val e = ColrModel.embed(Float, Seq("1", "2", "3"))
    assert(math.abs(EmbeddingOps.norm(e) - 1.0) < 1e-6)
  }

  // ------------------------------------------------------ EmbeddingOps
  test("cosine of identical vectors is 1") {
    val v = Array(1.0, 2.0, 3.0)
    assert(math.abs(EmbeddingOps.cosine(v, v) - 1.0) < 1e-12)
  }
  test("cosine of orthogonal vectors is 0") {
    assert(EmbeddingOps.cosine(Array(1.0, 0.0), Array(0.0, 1.0)) == 0.0)
  }
  test("cosine with zero vector is 0") {
    assert(EmbeddingOps.cosine(Array(0.0, 0.0), Array(1.0, 1.0)) == 0.0)
  }
  test("cosine rejects dimension mismatch") {
    intercept[IllegalArgumentException] {
      EmbeddingOps.cosine(Array(1.0), Array(1.0, 2.0))
    }
  }
  test("mean of vectors") {
    val m = EmbeddingOps.mean(Seq(Array(1.0, 3.0), Array(3.0, 5.0)))
    assert(m.toSeq == Seq(2.0, 4.0))
  }
  test("normalizeTo hits the target norm") {
    val v = EmbeddingOps.normalizeTo(Array(3.0, 4.0), 2.0)
    assert(math.abs(EmbeddingOps.norm(v) - 2.0) < 1e-12)
  }
  test("concat preserves order and length") {
    assert(EmbeddingOps.concat(Seq(Array(1.0), Array(2.0, 3.0))).toSeq == Seq(1.0, 2.0, 3.0))
  }
}
