package repro.runtime

import repro.cluster.{CostModel, RuntimeHooks}
import repro.model.QueryModels
import repro.moo.Pareto
import repro.params.{Sampling, SparkParams, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, QueryGraph, SubQ}

/** The runtime optimizer — the AQE plugin of §5.2.
  *
  * Invoked at the two hook points of Fig 2: when a collapsed logical plan
  * is re-optimized (re-tunes `θp` for the join stages about to be planned)
  * and when a query stage is created (re-tunes `θs`). Decisions are scored
  * with the learned models over the whole true graph, each in the view it
  * was trained on (subQ: α, β = γ = 0; QS: α, β and `g.contention`). So
  * they read the true output of the stage being tuned, which AQE cannot
  * know when it plans that stage (ROADMAP.md item 1). Each hook recommends
  * as compile time does: WUN under the user's latency/cost preference over
  * the Pareto set of the current copy and its candidates (§3.3.2).
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

  // Candidate θp and θs copies, drawn as HMOOC's pool is: Spark defaults
  // plus a fixed refined LHS. The current copy is added at scoring time so
  // "keep" is an option.
  private[runtime] val pCandidates: Vector[ThetaP] =
    ThetaP.default +: Sampling.latinHypercube(23, SparkParams.dP, 91L)
      .map(u => ThetaP.fromUnit(Sampling.refine(u)))

  private[runtime] val sCandidates: Vector[ThetaS] =
    ThetaS.default +: Sampling.latinHypercube(16, SparkParams.dS, 92L)
      .map(u => ThetaS.fromUnit(Sampling.refine(u)))

  private val thetaC = repro.params.ThetaC.fromUnit(cU)

  // The most recent θp copy handed back to AQE — QS-level scoring uses it
  // for the partition-count feature.
  private var currentP: ThetaP = pInit

  /** Scores `current +: candidates` to predicted (latency, cost), returns
    * the WUN pick over their Pareto set, and adds the call's wall time to
    * `optTimeSec`. A candidate scored exactly as the current copy collapses
    * into it, so the current copy is kept then.
    */
  private def choose[T](current: T, candidates: Vector[T])(objectives: T => (Double, Double)): T = {
    val t0 = System.nanoTime()
    val scored = (current +: candidates).map { t => val (lat, cost) = objectives(t); Pareto.Sol(lat, cost, t) }
    val picked = Pareto.wun(Pareto.skyline(scored), pref).payload
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
