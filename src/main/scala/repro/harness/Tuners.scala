package repro.harness

import repro.cluster.{QueryExec, Simulator}
import repro.model.QueryModels
import repro.moo.FineConfig
import repro.params.{ThetaP, ThetaS}
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{JoinAlgo, QueryGraph}

/** End-to-end deployment of a fine-grained recommendation on the simulator,
  * mirroring how HMOOC deploys on real Spark (§6.3). Query-level
  * recommendations (default, MO-WS, SO-FW) run through `Simulator.runStatic`.
  */
object Tuners {

  /** Submission (§C.2.1): `θc*` builds the context, and the `{θp}`/`{θs}`
    * copies are aggregated into the single submission-time copies, under
    * which the plan is compiled on estimated statistics.
    */
  private def submit(sim: Simulator, g: QueryGraph, fc: FineConfig): (ThetaP, ThetaS, Map[Int, JoinAlgo]) = {
    val pAgg = ThetaAggregator.aggregateP(g, fc)
    (pAgg, ThetaAggregator.aggregateS(g, fc), sim.compilePlan(g, _ => pAgg))
  }

  /** Deploy without runtime re-optimization (HMOOC3): plain AQE runs with
    * the static submission-time copies.
    */
  def runCompileTime(sim: Simulator, g: QueryGraph, fc: FineConfig, noiseSeed: Long): QueryExec = {
    val (pAgg, sAgg, plan) = submit(sim, g, fc)
    sim.execute(g, fc.thetaC, plan, pAgg, sAgg, hooks = None, noiseSeed)
  }

  /** Deploy with runtime optimization on top (HMOOC3+): same submission as
    * [[runCompileTime]], plus the AQE-plugin hooks re-tuning `θp`/`θs` from
    * true statistics. Returns the execution and the runtime-optimization
    * overhead (added to the compile-time solving time in Table 4).
    */
  def runHybrid(
      sim: Simulator,
      g: QueryGraph,
      qm: QueryModels,
      fc: FineConfig,
      pref: (Double, Double),
      noiseSeed: Long): (QueryExec, RuntimeOptimizer) = {
    val (pAgg, sAgg, plan) = submit(sim, g, fc)
    val opt = new RuntimeOptimizer(qm, fc.cU, pref, pInit = pAgg)
    (sim.execute(g, fc.thetaC, plan, pAgg, sAgg, Some(opt), noiseSeed), opt)
  }
}
