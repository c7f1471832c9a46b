package repro.runtime

import repro.cluster.{CostModel, RuntimeHooks}
import repro.model.QueryModels
import repro.params.{Sampling, SparkParams, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, QueryGraph, SubQ}

/** The runtime optimizer — the AQE plugin of §5.2.
  *
  * Invoked at the two hook points of Fig 2: when a collapsed logical plan
  * is re-optimized (re-tunes `θp` for the join stages about to be planned)
  * and when a query stage is created (re-tunes `θs`). Decisions are scored
  * with the learned models over *true* statistics of completed stages, each
  * in the view it was trained on (subQ: α, β = γ = 0; QS: α, β and
  * `g.contention`), and picked by the user's latency/cost preference.
  *
  * Request pruning (§C.2.2) happens in the simulator's AQE loop: hooks only
  * fire for join-planning collapsed plans with complete input statistics,
  * and for non-scan stages above the advisory partition size; the
  * simulator's `QueryExec.lqpRequestsSent`/`qsRequestsSent` count the calls.
  */
final class RuntimeOptimizer(
    qm: QueryModels,
    cU: Array[Double],
    pref: (Double, Double),
    pInit: ThetaP = ThetaP.default) extends RuntimeHooks {

  /** Accumulated wall time spent inside the hooks (the runtime share of
    * HMOOC3+'s solving time in Table 4).
    */
  var optTimeSec: Double = 0.0

  // Candidate θp copies: a fixed 23-point LHS pool (seed 91) plus Spark
  // defaults; the current copy is always added at scoring time so "keep" is
  // an option.
  private val pCandidates: Vector[ThetaP] =
    ThetaP.default +: Sampling.latinHypercube(23, SparkParams.dP, 91L)
      .map(u => ThetaP.fromUnit(Sampling.refine(u)))

  // Candidate θs copies: small grid (2 params only).
  private[runtime] val sCandidates: Vector[ThetaS] =
    ThetaS.default +: Sampling.grid(4, SparkParams.dS).map(u => ThetaS.fromUnit(u))

  private val thetaC = repro.params.ThetaC.fromUnit(cU)

  // The most recent θp copy handed back to AQE — QS-level scoring uses it
  // for the partition-count feature.
  private var currentP: ThetaP = pInit

  /** Scores `current +: candidates` to predicted (latency, cost), returns
    * the preferred one, and adds the call's wall time to `optTimeSec`.
    */
  private def choose[T](current: T, candidates: Vector[T])(objectives: T => (Double, Double)): T = {
    val t0 = System.nanoTime()
    val scored = (current +: candidates).map { t => val (lat, cost) = objectives(t); (t, lat, cost) }
    val picked = RuntimeOptimizer.pickPreferred(scored, pref)
    optTimeSec += (System.nanoTime() - t0) / 1e9
    picked
  }

  override def onCollapsedPlan(
      g: QueryGraph,
      readyJoins: Vector[SubQ],
      trueOut: Map[Int, CostModel.SideStats],
      current: ThetaP): ThetaP = {
    currentP = choose(current, pCandidates) { p =>
      val u = cU ++ p.toUnit ++ ThetaS.default.toUnit
      var lat = 0.0; var cost = 0.0
      readyJoins.foreach { j =>
        val (l, io) = qm.predictSubQTrue(j.id, u)
        val (ll, cc) = qm.toObjectives(l, io, thetaC)
        lat += ll; cost += cc
      }
      (lat, cost)
    }
    currentP
  }

  override def onQueryStage(
      sub: SubQ,
      inputMb: Double,
      algo: Option[JoinAlgo],
      current: ThetaS): ThetaS = {
    val algoCode = JoinAlgo.code(algo)
    val (siblings, siblingMb) = qm.g.contention(sub.id)
    choose(current, sCandidates) { s =>
      val u = cU ++ currentP.toUnit ++ s.toUnit
      val (l, io) = qm.predictQs(sub.id, u, algoCode, siblings, siblingMb)
      qm.toObjectives(l, io, thetaC)
    }
  }
}

object RuntimeOptimizer {

  /** Preference-weighted pick over candidates, objectives normalized across
    * the candidate set (the WUN discipline applied to a point decision).
    * The incumbent copy (first element) is kept unless a challenger is
    * predicted at least ~8% better — hysteresis against model noise.
    */
  private[runtime] def pickPreferred[T](scored: Vector[(T, Double, Double)], pref: (Double, Double)): T = {
    val lmin = scored.map(_._2).min; val lr = math.max(1e-12, scored.map(_._2).max - lmin)
    val cmin = scored.map(_._3).min; val cr = math.max(1e-12, scored.map(_._3).max - cmin)
    def weighted(l: Double, c: Double): Double =
      pref._1 * (l - lmin + 1e-12) / lr + pref._2 * (c - cmin + 1e-12) / cr
    val incumbent = scored.head
    val best = scored.minBy { case (_, l, c) => weighted(l, c) }
    val incScore = weighted(incumbent._2, incumbent._3)
    val bestScore = weighted(best._2, best._3)
    if (bestScore < incScore - 0.08 * math.max(incScore, 0.1)) best._1 else incumbent._1
  }
}
