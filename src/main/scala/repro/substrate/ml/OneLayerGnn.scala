package repro.substrate.ml

import scala.util.Random

/** One-layer GNN node classifier — the GraphSAINT substitute (§4.1).
  *
  * The paper's cleaning/transformation models are single-layer GNNs
  * ("there is only one edge between a given table and its cleaning
  * operation"): a node's representation is the mean of its neighbours'
  * input embeddings, followed by a linear layer and a softmax. That mean
  * is computed before this class sees a node: it is Eq. 1 in
  * [[repro.core.embed.TableEmbedding]], the per-type mean of a table's
  * column embeddings, and `fit` and `predict` take its result. Training
  * uses GraphSAINT-style node-sampled mini-batches with SGD on
  * cross-entropy. Implemented with plain arrays — the
  * feature matrices involved (hundreds of nodes × 1800 dims) need no
  * tensor runtime.
  */
final class OneLayerGnn(
    val dim: Int,
    val numClasses: Int,
    learningRate: Double = 0.1,
    epochs: Int = 200,
    batchSize: Int = 32,
    seed: Long = 42L,
) {
  private val l2 = 1e-4 // weight decay
  /** weights(c)(d) + bias(c): the single linear layer. */
  private var weights: Array[Array[Double]] = Array.ofDim(numClasses, dim)
  private var bias: Array[Double]           = Array.ofDim(numClasses)

  private def logits(x: Array[Double]): Array[Double] = {
    val out = Array.ofDim[Double](numClasses)
    var c = 0
    while (c < numClasses) {
      var s = bias(c); var i = 0
      while (i < dim) { s += weights(c)(i) * x(i); i += 1 }
      out(c) = s; c += 1
    }
    out
  }

  private def softmax(z: Array[Double]): Array[Double] = {
    val m  = z.max
    val ez = z.map(v => math.exp(v - m))
    val s  = ez.sum
    ez.map(_ / s)
  }

  /** Train on aggregated node features (Eq. 1) + labels. Returns final loss. */
  def fit(features: Array[Array[Double]], labels: Array[Int]): Double = {
    require(features.length == labels.length && features.nonEmpty)
    val rng = new Random(seed)
    var loss = 0.0
    (0 until epochs).foreach { _ =>
      // GraphSAINT-style: sample a node batch per step
      val idx = Array.fill(math.min(batchSize, features.length))(
        rng.nextInt(features.length))
      loss = 0.0
      val gradW = Array.ofDim[Double](numClasses, dim)
      val gradB = Array.ofDim[Double](numClasses)
      idx.foreach { i =>
        val p = softmax(logits(features(i)))
        loss -= math.log(math.max(p(labels(i)), 1e-12))
        var c = 0
        while (c < numClasses) {
          val err = p(c) - (if (c == labels(i)) 1.0 else 0.0)
          var d = 0
          while (d < dim) { gradW(c)(d) += err * features(i)(d); d += 1 }
          gradB(c) += err
          c += 1
        }
      }
      val n = idx.length.toDouble
      var c = 0
      while (c < numClasses) {
        var d = 0
        while (d < dim) {
          weights(c)(d) -= learningRate * (gradW(c)(d) / n + l2 * weights(c)(d))
          d += 1
        }
        bias(c) -= learningRate * gradB(c) / n
        c += 1
      }
      loss /= n
    }
    loss
  }

  /** Class probabilities for one aggregated node feature. */
  def predictProba(x: Array[Double]): Array[Double] = softmax(logits(x))

  /** Argmax class. */
  def predict(x: Array[Double]): Int = {
    val p = predictProba(x)
    p.indices.maxBy(i => (p(i), -i))
  }
}
