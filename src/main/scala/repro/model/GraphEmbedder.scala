package repro.model

import scala.util.Random
import repro.workload.{OpType, QueryGraph, SubQ}

/** Plan embedder — the GTN substitute (see DESIGN.md).
  *
  * The paper embeds the operator DAG with a Graph Transformer Network
  * (one-hot operator type ⊕ cardinalities ⊕ predicate embeddings, with
  * positional encodings, §4.3) and feeds the embedding to a regressor. We
  * keep exactly that interface but replace the trained GTN with a
  * deterministic random-projection message-passing encoder: fixed random
  * weights project per-operator features, a few rounds of child→parent
  * mixing propagate structure, and mean⊕max pooling yields a fixed-size
  * graph embedding. The regressor head (`Mlp`) is trained on top.
  *
  * Crucially — as in the paper's architecture (Fig 6) — the embedding
  * depends only on the plan and its statistics, *not* on `θ`: tuners can
  * embed once per (sub)plan and re-score many configurations through the
  * cheap regressor head, which is what makes HMOOC's per-subQ search fast.
  */
final class GraphEmbedder(seed: Long = 7L) extends Serializable {

  private val dim = 12   // hidden width per node
  private val rounds = 2 // child→parent message-passing rounds

  private val inDim = OpType.vocabSize + 3 // one-hot ⊕ log rows ⊕ log bytes ⊕ depth
  private val rnd = new Random(seed)
  private def mat(out: Int, in: Int): Array[Array[Double]] = {
    val s = math.sqrt(1.0 / in)
    Array.fill(out, in)(rnd.nextGaussian() * s)
  }
  private val wIn   = mat(dim, inDim)
  private val wSelf = mat(dim, dim)
  private val wMix  = mat(dim, dim)

  /** Embedding width of `embed*` outputs (mean ⊕ max pooling). */
  def outDim: Int = 2 * dim

  private def apply(m: Array[Array[Double]], x: Array[Double]): Array[Double] = {
    val out = new Array[Double](m.length)
    var o = 0
    while (o < m.length) {
      var s = 0.0; val row = m(o)
      var i = 0
      while (i < x.length) { s += row(i) * x(i); i += 1 }
      out(o) = s
      o += 1
    }
    out
  }

  private def nodeFeatures(op: OpType, rows: Double, bytes: Double, depth: Double): Array[Double] = {
    val f = new Array[Double](inDim)
    f(op.id) = 1.0
    f(OpType.vocabSize) = math.log1p(math.max(0.0, rows)) / 25.0
    f(OpType.vocabSize + 1) = math.log1p(math.max(0.0, bytes)) / 40.0
    f(OpType.vocabSize + 2) = depth
    f
  }

  /** Embed a DAG of operator nodes. `edges(i)` lists the child node indices
    * feeding node `i`.
    */
  def embedDag(
      ops: Vector[OpType],
      rows: Vector[Double],
      bytes: Vector[Double],
      edges: Vector[Vector[Int]]): Array[Double] = {
    require(ops.nonEmpty, "cannot embed an empty plan")
    val n = ops.size
    val maxDepth = math.max(1, n)
    var h = Array.tabulate(n) { i =>
      apply(wIn, nodeFeatures(ops(i), rows(i), bytes(i), i.toDouble / maxDepth)).map(math.tanh)
    }
    var r = 0
    while (r < rounds) {
      val next = new Array[Array[Double]](n)
      var i = 0
      while (i < n) {
        val self = apply(wSelf, h(i))
        val kids = edges(i)
        if (kids.nonEmpty) {
          val agg = new Array[Double](dim)
          kids.foreach { k =>
            val hk = h(k)
            var d = 0
            while (d < dim) { agg(d) += hk(d) / kids.size; d += 1 }
          }
          val mixed = apply(wMix, agg)
          var d = 0
          while (d < dim) { self(d) += mixed(d); d += 1 }
        }
        next(i) = self.map(math.tanh)
        i += 1
      }
      h = next
      r += 1
    }
    val out = new Array[Double](2 * dim)
    var d = 0
    while (d < dim) {
      var sum = 0.0; var mx = Double.MinValue
      var i = 0
      while (i < n) { sum += h(i)(d); mx = math.max(mx, h(i)(d)); i += 1 }
      out(d) = sum / n
      out(dim + d) = mx
      d += 1
    }
    out
  }

  /** Embed a single subQ: its operators form a chain, each annotated with
    * the subQ's (estimated or true) input statistics.
    */
  def embedSubQ(sub: SubQ, inRows: Double, inBytes: Double): Array[Double] =
    embedDag(
      sub.ops,
      Vector.fill(sub.ops.size)(inRows),
      Vector.fill(sub.ops.size)(inBytes),
      Vector.tabulate(sub.ops.size)(i => if (i == 0) Vector.empty else Vector(i - 1)))

  /** Embed a whole (possibly collapsed) query graph: per-subQ chains linked
    * by the stage dependencies, each annotated with its subQ's input
    * statistics under the graph's own view (estimated or true).
    */
  def embedGraph(g: QueryGraph): Array[Double] = {
    val ops = Vector.newBuilder[OpType]
    val rows = Vector.newBuilder[Double]
    val bytes = Vector.newBuilder[Double]
    val edges = Vector.newBuilder[Vector[Int]]
    // first operator node index of each subQ
    val firstIdx = new Array[Int](g.numSubQs)
    var idx = 0
    g.subQs.foreach { sub =>
      firstIdx(sub.id) = idx
      sub.ops.indices.foreach { i =>
        ops += sub.ops(i); rows += sub.trueInputRows.toDouble; bytes += sub.trueInputBytes.toDouble
        val chain = if (i == 0) Vector.empty[Int] else Vector(idx + i - 1)
        val deps =
          if (i == 0) sub.children.map(c => firstIdx(c) + g.subQs(c).ops.size - 1)
          else Vector.empty[Int]
        edges += (chain ++ deps)
      }
      idx += sub.ops.size
    }
    embedDag(ops.result(), rows.result(), bytes.result(), edges.result())
  }
}
