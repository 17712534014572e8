package repro.substrate.ml

import repro.core.embed.EmbeddingOps

/** Embedding store + similarity search — the Faiss stand-in (§2.2).
  *
  * Holds `(id, vector)` pairs and answers top-k cosine queries. Our
  * corpora are four orders of magnitude below Faiss scale, so an exact
  * scan is both faster than index maintenance and bit-reproducible;
  * the interface (add / topK) mirrors how KGLiDS uses its embedding
  * store.
  */
final class VectorIndex(val dim: Int) {
  private val ids  = scala.collection.mutable.ArrayBuffer.empty[String]
  private val vecs = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]

  def size: Int = ids.size

  def add(id: String, v: Array[Double]): Unit = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    ids += id
    vecs += v
  }

  /** Top-k ids by cosine similarity (ties broken by id for determinism). */
  def topK(query: Array[Double], k: Int): Seq[(String, Double)] = {
    require(query.length == dim, s"expected dim $dim, got ${query.length}")
    ids.indices
      .map(i => (ids(i), EmbeddingOps.cosine(query, vecs(i))))
      .sortBy { case (id, s) => (-s, id) }
      .take(k)
  }

  /** Most similar entry, if the index is non-empty. */
  def nearest(query: Array[Double]): Option[(String, Double)] =
    topK(query, 1).headOption

  def vectorOf(id: String): Option[Array[Double]] = {
    val i = ids.indexOf(id)
    if (i < 0) None else Some(vecs(i))
  }
}
