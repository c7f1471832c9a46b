package repro.model

import repro.cluster.ClusterSpec
import repro.params.ThetaC
import repro.workload.QueryGraph

/** A trained regressor head with its target scaler: the MLP is fit on
  * z-scored log targets (latencies span six orders of magnitude across
  * stages, so the log keeps errors relative); predictions are mapped back
  * to (latency sec, IO MB).
  */
final case class RegModel(mlp: Mlp, yMean: Array[Double], yStd: Array[Double]) {
  /** Predict (latency seconds, IO MB) for one feature vector. */
  def predictLatIo(x: Array[Double]): (Double, Double) = {
    val out = mlp.predict(x)
    val lat = math.exp(out(0) * yStd(0) + yMean(0))
    val io  = math.exp(out(1) * yStd(1) + yMean(1))
    (math.max(1e-5, lat), math.max(0.0, io))
  }
}

/** The three trained models of §4.3 plus their shared embedder. The LQP
  * model is trained and reported for Table 3 only: no decision uses it,
  * because `RuntimeOptimizer` scores `θp` with the subQ model on true α
  * (β = γ = 0, the subQ model's view).
  */
final case class Models(embedder: GraphEmbedder, subQ: RegModel, qs: RegModel, lqp: RegModel)

/** Model-backed objective evaluation for one query: the trained heads
  * applied to two [[PlanFeatures]], one over the query as compile time
  * believes it to be ([[QueryGraph.estimated]]) and one over the real graph.
  *
  * Embeddings and non-decision features are configuration-independent
  * (Fig 6), so each featurizer computes them once per subQ; every candidate
  * evaluation is then a single regressor forward pass. This prefix caching
  * is what gives HMOOC its low solving time relative to global methods
  * that must evaluate all `m` subQ models per sampled configuration.
  */
final class QueryModels(val g: QueryGraph, val models: Models, val spec: ClusterSpec) {

  val m: Int = g.numSubQs

  private val compileTime = new PlanFeatures(g.estimated, models.embedder)
  private val runtime = new PlanFeatures(g, models.embedder)

  /** Predicted (analytical latency sec, IO MB) of subQ `i` at compile time
    * under the unit-normalized 19-dim configuration.
    */
  def predictSubQ(i: Int, unit19: Array[Double]): (Double, Double) =
    models.subQ.predictLatIo(compileTime.subQ(i, unit19))

  /** [[predictSubQ]] on the true graph's α, with β = γ = 0 as in the subQ
    * model's training rows (the runtime optimizer re-scores `θp`). It reads
    * the true output of subQ `i` itself, which AQE does not know when it
    * plans the stage (ROADMAP.md item 1).
    */
  def predictSubQTrue(i: Int, unit19: Array[Double]): (Double, Double) =
    models.subQ.predictLatIo(runtime.subQ(i, unit19))

  /** Runtime QS model: θp dropped, true statistics, the stage's physical
    * join algorithm (AQE already planned it), and contention `γ` (`g.contention(i)`).
    */
  def predictQs(
      i: Int,
      unit19: Array[Double],
      algoCode: Int,
      gammaSiblings: Double,
      gammaMb: Double): (Double, Double) =
    models.qs.predictLatIo(runtime.qs(i, unit19, algoCode, gammaSiblings, gammaMb))

  /** Convert a subQ's predicted (latency, IO) into (latency, cloud cost). */
  def toObjectives(latSec: Double, ioMb: Double, c: ThetaC): (Double, Double) =
    (latSec, spec.costUsd(c, latSec, ioMb))

  /** Per-subQ share of the Spark-context bring-up time under `θc` (the
    * whole-query constant spread over the `m` subQs so that the Λ = sum
    * aggregation charges it exactly once).
    */
  def startupShareSec(c: ThetaC): Double = spec.startupSec(c) / m

  /** Objectives of subQ `i` under a configuration (compile-time view). */
  def subQObjectives(i: Int, unit19: Array[Double], c: ThetaC): (Double, Double) = {
    val (lat, io) = predictSubQ(i, unit19)
    val (l, cost) = toObjectives(lat + startupShareSec(c), io, c)
    (l, cost)
  }

  /** Query-level objectives of one shared configuration: Λ = sum over subQs
    * (analytical latency and cost are both sum-aggregated, §4.2).
    */
  def queryObjectives(unit19: Array[Double], c: ThetaC): (Double, Double) = {
    var lat = 0.0; var cost = 0.0
    var i = 0
    while (i < m) {
      val (l, co) = subQObjectives(i, unit19, c)
      lat += l; cost += co
      i += 1
    }
    (lat, cost)
  }
}
