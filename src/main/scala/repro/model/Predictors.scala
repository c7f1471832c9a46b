package repro.model

import repro.cluster.ClusterSpec
import repro.params.ThetaC
import repro.workload.{QueryGraph, SubQ}

/** Per-subQ input statistics, estimated (CBO view) or true (runtime view). */
object PlanStats {
  /** Estimated input (rows, bytes): scans read the table (well-estimated);
    * other stages read their children's *estimated* outputs.
    */
  def estIn(g: QueryGraph, sub: SubQ): (Double, Double) =
    if (sub.isScan) (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
    else {
      val kids = sub.children.map(g.subQs)
      (kids.map(_.estOutRows.toDouble).sum, kids.map(_.estOutBytes.toDouble).sum)
    }

  /** True input (rows, bytes) — known at runtime once children complete. */
  def trueIn(g: QueryGraph, sub: SubQ): (Double, Double) =
    (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
}

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
  * because `RuntimeOptimizer` scores `θp` with the subQ model on true
  * statistics.
  */
final case class Models(embedder: GraphEmbedder, subQ: RegModel, qs: RegModel, lqp: RegModel)

/** Model-backed objective evaluation for one query.
  *
  * Embeddings and non-decision features are configuration-independent
  * (Fig 6), so they are computed once per subQ here; every candidate
  * evaluation is then a single regressor forward pass. This prefix caching
  * is what gives HMOOC its low solving time relative to global methods
  * that must evaluate all `m` subQ models per sampled configuration.
  */
final class QueryModels(val g: QueryGraph, val models: Models, val spec: ClusterSpec) {

  val m: Int = g.numSubQs

  // Compile-time prefixes: embedding + non-decision (α_cbo, β=0, γ=0).
  private val compilePrefix: Array[Array[Double]] = g.subQs.map { sub =>
    val (rows, bytes) = PlanStats.estIn(g, sub)
    val emb = models.embedder.embedSubQ(sub, rows, bytes)
    val nd = Features.NonDecision(bytes / 1048576.0, rows,
      sub.estOutBytes / 1048576.0, sub.estOutRows.toDouble, 0.0, 0.0, 0.0)
    emb ++ nd.toArray
  }.toArray

  // Runtime prefixes: true statistics, β from the generator's skew.
  private val runtimePrefix: Array[Array[Double]] = g.subQs.map { sub =>
    val (rows, bytes) = PlanStats.trueIn(g, sub)
    val emb = models.embedder.embedSubQ(sub, rows, bytes)
    val nd = Features.NonDecision(bytes / 1048576.0, rows,
      sub.trueOutBytes / 1048576.0, sub.trueOutRows.toDouble, sub.skew - 1.0, 0.0, 0.0)
    emb ++ nd.toArray
  }.toArray

  // Build-side size per join subQ (min child output), estimated and true.
  private val estBuildMb: Array[Double] = g.subQs.map { sub =>
    if (sub.isJoin) sub.children.map(c => g.subQs(c).estOutBytes).min / 1048576.0 else 0.0
  }.toArray
  private val trueBuildMb: Array[Double] = g.subQs.map { sub =>
    if (sub.isJoin) sub.children.map(c => g.subQs(c).trueOutBytes).min / 1048576.0 else 0.0
  }.toArray
  private val estInMb: Array[Double]  = g.subQs.map(s => PlanStats.estIn(g, s)._2 / 1048576.0).toArray
  private val trueInMb: Array[Double] = g.subQs.map(s => PlanStats.trueIn(g, s)._2 / 1048576.0).toArray
  private val parentOf: Map[Int, Int] = g.subQs.flatMap(s => s.children.map(_ -> s.id)).toMap

  private def concat(prefix: Array[Double], theta: Array[Double], hints: Array[Double]): Array[Double] = {
    val out = new Array[Double](prefix.length + theta.length + hints.length)
    System.arraycopy(prefix, 0, out, 0, prefix.length)
    System.arraycopy(theta, 0, out, prefix.length, theta.length)
    System.arraycopy(hints, 0, out, prefix.length + theta.length, hints.length)
    out
  }

  /** Predicted (analytical latency sec, IO MB) of subQ `i` at compile time
    * under the unit-normalized 19-dim configuration.
    */
  def predictSubQ(i: Int, unit19: Array[Double]): (Double, Double) = {
    val sub = g.subQs(i)
    val algo = Features.ruleAlgoCode(sub.isJoin, estBuildMb(i), unit19)
    val writes = Features.writesShuffle(g, i, parentOf, estBuildMb, unit19)
    val hints = Features.hints(algo, sub.isScan, writes, estInMb(i), unit19)
    models.subQ.predictLatIo(concat(compilePrefix(i), unit19, hints))
  }

  /** Same as [[predictSubQ]] but with true runtime statistics (used by the
    * runtime optimizer to re-score `θp` candidates).
    */
  def predictSubQTrue(i: Int, unit19: Array[Double]): (Double, Double) = {
    val sub = g.subQs(i)
    val algo = Features.ruleAlgoCode(sub.isJoin, trueBuildMb(i), unit19)
    val writes = Features.writesShuffle(g, i, parentOf, estBuildMb, unit19)
    val hints = Features.hints(algo, sub.isScan, writes, trueInMb(i), unit19)
    models.subQ.predictLatIo(concat(runtimePrefix(i), unit19, hints))
  }

  /** Runtime QS model: θp dropped, true statistics, the stage's physical
    * join algorithm (AQE already planned it), and contention features.
    */
  def predictQs(
      i: Int,
      unit19: Array[Double],
      algoCode: Int,
      gammaSiblings: Double,
      gammaWork: Double): (Double, Double) = {
    val sub = g.subQs(i)
    val (rows, bytes) = PlanStats.trueIn(g, sub)
    val nd = Features.NonDecision(bytes / 1048576.0, rows,
      sub.trueOutBytes / 1048576.0, sub.trueOutRows.toDouble, sub.skew - 1.0,
      gammaSiblings, gammaWork)
    val emb = models.embedder.embedSubQ(sub, rows, bytes)
    val writes = Features.writesShuffle(g, i, parentOf, estBuildMb, unit19)
    val hints = Features.hints(algoCode, sub.isScan, writes, trueInMb(i), unit19)
    val x = Features.assemble(emb, nd, Features.dropThetaP(unit19) ++ hints)
    models.qs.predictLatIo(x)
  }

  /** Convert a subQ's predicted (latency, IO) into (latency, cloud cost). */
  def toObjectives(latSec: Double, ioMb: Double, c: ThetaC): (Double, Double) =
    (latSec, spec.costUsd(c, latSec, ioMb))

  /** Per-subQ share of the Spark-context bring-up time under `θc` (the
    * whole-query constant spread over the `m` subQs so that the Λ = sum
    * aggregation charges it exactly once).
    */
  def startupShareSec(c: ThetaC): Double =
    (spec.contextStartupSec + spec.execStartupSec * c.execInstances) / m

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
