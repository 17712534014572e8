package repro.core.embed

import scala.util.hashing.MurmurHash3

import repro.core.profile.{ColumnStats, FineGrainedType}
import repro.substrate.text.Tokenizer

/** CoLR — column learned representations (§3.2), offline substitute.
  *
  * The paper trains one neural encoder per fine-grained type on 5,500
  * Kaggle/OpenML tables so that two columns embed close when (i) their
  * raw values overlap, (ii) their distributions are similar, or (iii)
  * they measure the same variable at a different scale (area_sq_ft vs
  * area_sq_m). This deterministic featurizer produces 300-dim vectors
  * with exactly those three invariances, per type:
  *
  *  - block A `[0,150)`  — sign-hashed sketch of distinct canonical
  *    values: raw-value overlap ⇒ high block cosine;
  *  - block B `[150,250)` — scale-normalized distribution shape
  *    (numeric: histogram of v/mean|v|; text: hashed token bag; date:
  *    month/weekday/year histograms): similar or rescaled distributions
  *    ⇒ high block cosine;
  *  - block C `[250,300)` — scale-invariant moments and shape statistics.
  *
  * Blocks are normalized to carry weights (0.5, 0.35, 0.15) so the full
  * cosine is the weighted sum of block cosines. Like the paper's models,
  * the encoder is applied to a value sample and averaged — callers pass
  * the sample; averaging is built into the histogram/sketch semantics.
  */
object ColrModel {

  /** Embedding dimensionality (matches the paper's CoLR size). */
  val Dim = 300

  private val SketchDim = 150
  private val ShapeDim  = 100
  private val MomentDim = 50

  private val WSketch = 0.50
  private val WShape  = 0.35
  private val WMoment = 0.15

  /** Embed a column from its sampled non-null string values. */
  def embed(fgType: String, sample: Seq[String]): Array[Double] = {
    val values = ColumnStats.nonBlank(sample).map(_.trim)
    if (values.isEmpty) return Array.fill(Dim)(0.0)
    fgType match {
      case FineGrainedType.Int | FineGrainedType.Float =>
        embedNumeric(values.flatMap(ColumnStats.finiteDouble))
      case FineGrainedType.Date    => embedDate(values)
      case FineGrainedType.Boolean => embedBoolean(values)
      case _                       => embedText(values)
    }
  }

  private def hashInto(sketch: Array[Double], key: String, weight: Double): Unit = {
    val h   = MurmurHash3.stringHash(key)
    val idx = math.floorMod(h, sketch.length)
    val sgn = if (((h >>> 16) & 1) == 0) 1.0 else -1.0
    sketch(idx) += sgn * weight
  }

  private def assemble(sketch: Array[Double], shape: Array[Double],
                       moments: Array[Double]): Array[Double] = {
    EmbeddingOps.concat(Seq(
      EmbeddingOps.normalizeTo(sketch, math.sqrt(WSketch)),
      EmbeddingOps.normalizeTo(shape, math.sqrt(WShape)),
      EmbeddingOps.normalizeTo(moments.padTo(MomentDim, 0.0), math.sqrt(WMoment)),
    ))
  }

  /** Numeric encoder: value-overlap sketch + scale-normalized shape. */
  private def embedNumeric(vals: Seq[Double]): Array[Double] = {
    if (vals.isEmpty) return Array.fill(Dim)(0.0)
    val sketch = Array.fill(SketchDim)(0.0)
    // Canonical value = 6 significant digits, so 3.14 and 3.140 collide.
    vals.distinct.foreach(v => hashInto(sketch, f"$v%.6g", 1.0))

    val meanAbs = vals.map(math.abs).sum / vals.size match {
      case 0.0 => 1.0
      case m   => m
    }
    val shape = Array.fill(ShapeDim)(0.0)
    vals.foreach { v =>
      val r = math.max(-5.0, math.min(5.0, v / meanAbs)) // scale-free ratio
      val b = math.min(ShapeDim - 1, ((r + 5.0) / 10.0 * ShapeDim).toInt)
      shape(b) += 1.0
    }

    val mean = vals.sum / vals.size
    val std  = math.sqrt(vals.map(v => (v - mean) * (v - mean)).sum / vals.size)
    val cv   = if (mean == 0.0) 0.0 else std / math.abs(mean)
    val skew =
      if (std == 0.0) 0.0
      else vals.map(v => math.pow((v - mean) / std, 3)).sum / vals.size
    val moments = Array(
      math.tanh(cv),
      math.tanh(skew / 3.0),
      vals.count(_ < 0).toDouble / vals.size,
      vals.count(_ == 0.0).toDouble / vals.size,
      vals.count(v => v == math.rint(v)).toDouble / vals.size,
      vals.distinct.size.toDouble / vals.size,
    )
    assemble(sketch, shape, moments)
  }

  /** Text encoder (named_entity / natural_language / string). */
  private def embedText(vals: Seq[String]): Array[Double] = {
    val sketch = Array.fill(SketchDim)(0.0)
    vals.distinct.foreach(v => hashInto(sketch, v.toLowerCase, 1.0))

    val shape = Array.fill(ShapeDim)(0.0)
    vals.foreach { v =>
      Tokenizer.tokenize(v).foreach { t =>
        val h = MurmurHash3.stringHash("tok:" + t)
        shape(math.floorMod(h, ShapeDim)) +=
          (if (((h >>> 16) & 1) == 0) 1.0 else -1.0)
      }
    }

    val lens = vals.map(_.length.toDouble)
    val mlen = lens.sum / lens.size
    val moments = Array(
      math.tanh(mlen / 20.0),
      math.tanh(vals.map(v => Tokenizer.tokenize(v).size.toDouble).sum / vals.size / 5.0),
      vals.distinct.size.toDouble / vals.size,
      vals.count(_.exists(_.isDigit)).toDouble / vals.size,
    )
    assemble(sketch, shape, moments)
  }

  /** Date encoder: exact-date sketch + calendar-shape histograms. */
  private def embedDate(vals: Seq[String]): Array[Double] = {
    val sketch = Array.fill(SketchDim)(0.0)
    vals.distinct.foreach(v => hashInto(sketch, v, 1.0))

    val shape = Array.fill(ShapeDim)(0.0)
    val YearBase = 1970
    vals.foreach { v =>
      parseIsoDate(v).foreach { case (y, m, d) =>
        shape(m - 1) += 1.0                                     // month [0,12)
        shape(12 + (d % 7)) += 1.0                              // day-of-month mod 7 [12,19)
        val yb = math.max(0, math.min(79, y - YearBase))
        shape(20 + yb) += 1.0                                   // year [20,100)
      }
    }
    val years = vals.flatMap(parseIsoDate).map(_._1.toDouble)
    val moments =
      if (years.isEmpty) Array(0.0)
      else {
        val my = years.sum / years.size
        Array(math.tanh((my - 2000.0) / 30.0),
              math.tanh(math.sqrt(years.map(y => (y - my) * (y - my)).sum / years.size) / 10.0))
      }
    assemble(sketch, shape, moments)
  }

  private def parseIsoDate(v: String): Option[(Int, Int, Int)] = {
    val iso = "^(\\d{4})-(\\d{2})-(\\d{2}).*".r
    v match {
      case iso(y, m, d) =>
        val mi = m.toInt; val di = d.toInt
        if (mi >= 1 && mi <= 12 && di >= 1 && di <= 31) Some((y.toInt, mi, di)) else None
      case _ => None
    }
  }

  /** Boolean encoder — content similarity for booleans uses true-ratio
    * (Alg. 3), but a vector is still produced so table aggregation
    * (Eq. 1) stays uniform.
    */
  private def embedBoolean(vals: Seq[String]): Array[Double] = {
    val ratio  = vals.count(ColumnStats.isTrue).toDouble / vals.size
    val sketch = Array.fill(SketchDim)(0.0); sketch(0) = 1.0
    val shape  = Array.fill(ShapeDim)(0.0)
    shape(math.min(ShapeDim - 1, (ratio * ShapeDim).toInt)) = 1.0
    assemble(sketch, shape, Array(ratio, 1.0 - ratio))
  }
}
