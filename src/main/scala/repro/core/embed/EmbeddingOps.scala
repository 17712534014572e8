package repro.core.embed

/** Dense-vector primitives shared by the profiler, the schema builder,
  * the GNN recommenders, and the vector index (Faiss stand-in).
  */
object EmbeddingOps {

  /** Cosine similarity; 0.0 when either vector is all-zero. */
  def cosine(a: Array[Double], b: Array[Double]): Double =
    cosine(dot(a, b), sumOfSquares(a), sumOfSquares(b))

  /** Cosine similarity from a dot product and the two vectors' sums of
    * squares, so that a caller comparing one vector with many computes
    * its sum of squares once; 0.0 when either sum is 0.
    */
  def cosine(dot: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) 0.0 else dot / math.sqrt(na * nb)

  /** Dot product, summed in index order. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Sum of squares, summed in index order. */
  def sumOfSquares(a: Array[Double]): Double = dot(a, a)

  /** L2 norm. */
  def norm(a: Array[Double]): Double = math.sqrt(sumOfSquares(a))

  /** Scale a copy of `a` so its L2 norm is `target` (no-op on zero). */
  def normalizeTo(a: Array[Double], target: Double): Array[Double] = {
    val n = norm(a)
    if (n == 0.0) a.clone() else a.map(_ * target / n)
  }

  /** Element-wise mean of same-length vectors; empty input → zero dim. */
  def mean(vs: Seq[Array[Double]]): Array[Double] = {
    if (vs.isEmpty) return Array.empty
    val acc = Array.fill(vs.head.length)(0.0)
    vs.foreach { v =>
      var i = 0
      while (i < acc.length) { acc(i) += v(i); i += 1 }
    }
    acc.map(_ / vs.size)
  }

  /** Concatenation of blocks. */
  def concat(vs: Seq[Array[Double]]): Array[Double] =
    vs.foldLeft(Array.empty[Double])(_ ++ _)
}
