package repro.model

import scala.util.Random

/** Small deterministic multi-layer perceptron regressor (pure Scala).
  *
  * This is the trained "regressor" half of the paper's model (Fig 6): it
  * consumes the concatenation of the plan embedding, non-decision variables
  * and the tunable-parameter vector, and predicts the objective targets
  * (log latency, log IO). Training is mini-batch Adam on MSE; everything is
  * seeded so training is reproducible.
  *
  * @param sizes layer widths, e.g. Array(in, 96, 96, out)
  */
final class Mlp(val sizes: Array[Int], seed: Long) extends Serializable {
  require(sizes.length >= 2, "need at least input and output layers")

  private val rnd = new Random(seed)
  private val nLayers = sizes.length - 1

  // He-initialized weights W(l)(out)(in) and biases b(l)(out).
  private[model] val w: Array[Array[Array[Double]]] = Array.tabulate(nLayers) { l =>
    val scale = math.sqrt(2.0 / sizes(l))
    Array.fill(sizes(l + 1), sizes(l))(rnd.nextGaussian() * scale)
  }
  private[model] val b: Array[Array[Double]] = Array.tabulate(nLayers)(l => Array.fill(sizes(l + 1))(0.0))

  // Adam state.
  private val mW = w.map(_.map(_.map(_ => 0.0)))
  private val vW = w.map(_.map(_.map(_ => 0.0)))
  private val mB = b.map(_.map(_ => 0.0))
  private val vB = b.map(_.map(_ => 0.0))
  private var adamT = 0

  private def relu(x: Double): Double = if (x > 0) x else 0.0

  /** Forward pass; returns activations per layer (index 0 = input). */
  private def forwardAll(x: Array[Double]): Array[Array[Double]] = {
    val acts = new Array[Array[Double]](nLayers + 1)
    acts(0) = x
    var l = 0
    while (l < nLayers) {
      val in = acts(l); val wl = w(l); val bl = b(l)
      val out = new Array[Double](sizes(l + 1))
      var o = 0
      while (o < out.length) {
        var s = bl(o); val row = wl(o)
        var i = 0
        while (i < in.length) { s += row(i) * in(i); i += 1 }
        out(o) = if (l < nLayers - 1) relu(s) else s
        o += 1
      }
      acts(l + 1) = out
      l += 1
    }
    acts
  }

  /** Predict outputs for one input vector. */
  def predict(x: Array[Double]): Array[Double] = forwardAll(x).last

  /** One Adam step on a mini-batch; returns the batch MSE. */
  private def step(xs: Array[Array[Double]], ys: Array[Array[Double]], lr: Double): Double = {
    val gW = w.map(_.map(_.map(_ => 0.0)))
    val gB = b.map(_.map(_ => 0.0))
    var loss = 0.0
    var n = 0
    while (n < xs.length) {
      val acts = forwardAll(xs(n))
      val out  = acts.last
      var delta = new Array[Double](out.length)
      var o = 0
      while (o < out.length) {
        val d = out(o) - ys(n)(o)
        loss += d * d
        delta(o) = 2.0 * d / out.length
        o += 1
      }
      var l = nLayers - 1
      while (l >= 0) {
        val in = acts(l)
        val gw = gW(l); val gb = gB(l)
        var oo = 0
        while (oo < delta.length) {
          val d = delta(oo)
          gb(oo) += d
          val grow = gw(oo)
          var i = 0
          while (i < in.length) { grow(i) += d * in(i); i += 1 }
          oo += 1
        }
        if (l > 0) {
          val nd = new Array[Double](sizes(l))
          var i = 0
          while (i < nd.length) {
            var s = 0.0
            var o2 = 0
            while (o2 < delta.length) { s += w(l)(o2)(i) * delta(o2); o2 += 1 }
            nd(i) = if (acts(l)(i) > 0) s else 0.0
            i += 1
          }
          delta = nd
        }
        l -= 1
      }
      n += 1
    }
    // Adam update.
    adamT += 1
    val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
    val bc1 = 1.0 - math.pow(b1, adamT)
    val bc2 = 1.0 - math.pow(b2, adamT)
    val inv = 1.0 / xs.length
    var l = 0
    while (l < nLayers) {
      var o = 0
      while (o < sizes(l + 1)) {
        val g0 = gB(l)(o) * inv
        mB(l)(o) = b1 * mB(l)(o) + (1 - b1) * g0
        vB(l)(o) = b2 * vB(l)(o) + (1 - b2) * g0 * g0
        b(l)(o) -= lr * (mB(l)(o) / bc1) / (math.sqrt(vB(l)(o) / bc2) + eps)
        val grow = gW(l)(o); val mrow = mW(l)(o); val vrow = vW(l)(o); val wrow = w(l)(o)
        var i = 0
        while (i < sizes(l)) {
          val g = grow(i) * inv
          mrow(i) = b1 * mrow(i) + (1 - b1) * g
          vrow(i) = b2 * vrow(i) + (1 - b2) * g * g
          wrow(i) -= lr * (mrow(i) / bc1) / (math.sqrt(vrow(i) / bc2) + eps)
          i += 1
        }
        o += 1
      }
      l += 1
    }
    loss / xs.length
  }

  /** Train with mini-batch Adam (batches of 64); returns the final epoch's
    * mean MSE.
    */
  def train(
      xs: Array[Array[Double]],
      ys: Array[Array[Double]],
      epochs: Int,
      lr: Double = 1e-3): Double = {
    require(xs.length == ys.length && xs.nonEmpty, "empty or mismatched training set")
    val order = xs.indices.toArray
    var lastLoss = 0.0
    val shuffleRnd = new Random(seed ^ 0x5DEECE66DL)
    for (epoch <- 1 to epochs) {
      // Linear learning-rate decay to a 10% floor.
      val lrNow = lr * (0.1 + 0.9 * (1.0 - (epoch - 1).toDouble / epochs))
      // Fisher–Yates shuffle for deterministic epoch ordering.
      var i = order.length - 1
      while (i > 0) {
        val j = shuffleRnd.nextInt(i + 1)
        val t = order(i); order(i) = order(j); order(j) = t
        i -= 1
      }
      var lossSum = 0.0; var batches = 0
      var start = 0
      while (start < order.length) {
        val end = math.min(order.length, start + 64)
        val bx = Array.tabulate(end - start)(k => xs(order(start + k)))
        val by = Array.tabulate(end - start)(k => ys(order(start + k)))
        lossSum += step(bx, by, lrNow)
        batches += 1
        start = end
      }
      lastLoss = lossSum / batches
    }
    lastLoss
  }
}
