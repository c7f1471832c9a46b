package repro.cluster

import scala.util.Random
import repro.params.{Configuration, ThetaC, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, QueryGraph, SubQ}
import repro.cluster.CostModel.{ReadMode, SideStats}

/** Execution record of one stage. */
final case class StageExec(
    subQId: Int,
    algo: Option[JoinAlgo],
    analyticalSec: Double,
    ioMb: Double,
    siblingCount: Int,
    siblingWorkSec: Double)

/** Execution record of one query run.
  *
  * The naive request counts are what AQE would send without the pruning
  * rules of §C.2.2: one collapsed-plan and one query-stage request per stage.
  */
final case class QueryExec(
    name: String,
    stages: Vector[StageExec],
    wallSec: Double,
    analyticalSec: Double,
    ioMb: Double,
    costUsd: Double,
    lqpRequestsSent: Int,
    qsRequestsSent: Int) {
  def lqpRequestsNaive: Int = stages.size
  def qsRequestsNaive: Int = stages.size
}

/** Runtime-optimization hook points — the two request types of Fig 2.
  *
  * `onCollapsedPlan` fires when completed-stage statistics are folded into
  * the collapsed plan and join stages are about to be planned; it returns
  * the `θp` to plan them with. `onQueryStage` fires per query stage before
  * execution and returns the `θs` to run it with. Either may return its
  * `current` argument unchanged. The simulator applies the pruning rules of
  * §C.2.2 before calling, so hooks see only unpruned requests.
  */
trait RuntimeHooks {
  def onCollapsedPlan(
      g: QueryGraph,
      readyJoins: Vector[SubQ],
      trueOut: Map[Int, SideStats],
      current: ThetaP): ThetaP

  def onQueryStage(sub: SubQ, inputMb: Double, algo: Option[JoinAlgo], current: ThetaS): ThetaS
}

/** The cluster simulator: compile-time planning on estimated statistics plus
  * a faithful AQE execution loop on true statistics.
  *
  * Stages execute in topological levels; ready stages at the same level run
  * concurrently and share the cluster (the resource contention of §4.2).
  * Join algorithms chosen at compile time may be upgraded at runtime —
  * SMJ→{SHJ,BHJ} only, never downgraded (§5.2) — using the *true* build-side
  * size against the thresholds in the currently active `θp`.
  */
final class Simulator(val spec: ClusterSpec = ClusterSpec.default) {

  /** True output statistics per subQ (configuration-independent). */
  def trueOut(g: QueryGraph): Map[Int, SideStats] =
    g.subQs.map(s => s.id -> SideStats(s.trueOutBytes, s.trueOutRows)).toMap

  /** Compile-time physical plan: one join algorithm per join stage,
    * [[QueryGraph.plannedAlgo]] under that subQ's `θp` copy, so every join
    * is decided from the estimated graph.
    */
  def compilePlan(g: QueryGraph, thetaPFor: SubQ => ThetaP): Map[Int, JoinAlgo] =
    g.subQs.filter(_.isJoin).map(sub => sub.id -> g.plannedAlgo(sub.id, thetaPFor(sub)).get).toMap

  /** Runtime upgrade rule: SMJ may become SHJ or BHJ; SHJ and BHJ stick. */
  def runtimeAlgo(compiled: JoinAlgo, trueBuildMb: Double, p: ThetaP): JoinAlgo =
    compiled match {
      case JoinAlgo.SMJ => JoinAlgo.choose(trueBuildMb, p)
      case other        => other
    }

  /** Execute `g` under context `θc`, a compiled plan, and initial `θp`/`θs`.
    *
    * @param hooks     runtime optimizer; `None` runs plain AQE with the
    *                  static parameter copies (Spark's own behaviour)
    * @param noiseSeed deterministic observation noise (>=0 multiplies each
    *                  stage's work by a log-normal factor with σ = 0.06;
    *                  <0 disables)
    */
  def execute(
      g: QueryGraph,
      c: ThetaC,
      compiled: Map[Int, JoinAlgo],
      p0: ThetaP,
      s0: ThetaS,
      hooks: Option[RuntimeHooks],
      noiseSeed: Long = -1L): QueryExec = {

    val cores = math.min(c.totalCores, spec.totalCores)
    val out   = trueOut(g)

    val rnd = if (noiseSeed >= 0) Some(new Random(noiseSeed)) else None
    def noise(): Double = rnd.map(r => math.exp(r.nextGaussian() * 0.06)).getOrElse(1.0)

    var thetaP = p0
    var wall = spec.startupSec(c)
    var analytical = 0.0; var io = 0.0
    var lqpSent = 0; var qsSent = 0
    val stageExecs = Vector.newBuilder[StageExec]

    g.levels.foreach { subs =>
      // --- Collapsed-plan (LQP) optimization request, with pruning rules:
      // only when this level plans a join (skip non-join re-optimizations)
      // and all the joins' input statistics are available (true here, since
      // children completed at lower levels). One deduplicated request per
      // collapsed plan.
      val readyJoins = subs.filter(_.isJoin)
      if (readyJoins.nonEmpty) hooks.foreach { h =>
        thetaP = h.onCollapsedPlan(g, readyJoins, out, thetaP)
        lqpSent += 1
      }

      val costs = subs.map { sub =>
        // The stage's true inputs (a join's build side last), how it reads
        // each, and its runtime join algorithm. A compiled BHJ pipelines its
        // probe side; a runtime BHJ reads it from local shuffle files.
        val (inputs, modes, algo) =
          if (sub.isScan)
            (Vector(SideStats(sub.trueInputBytes, sub.trueInputRows)), Vector(ReadMode.Table), None)
          else if (sub.isJoin) {
            val (probe, build) = g.probeBuild(sub, out(_).bytes)
            val planned = compiled(sub.id)
            val a = runtimeAlgo(planned, out(build).mb, thetaP)
            val probeMode =
              if (planned == JoinAlgo.BHJ) ReadMode.Pipelined
              else if (a == JoinAlgo.BHJ) ReadMode.LocalShuffle
              else ReadMode.Shuffle
            (Vector(out(probe), out(build)), Vector(probeMode, ReadMode.Shuffle), Some(a))
          } else
            (sub.children.map(out), sub.children.map(_ => ReadMode.Shuffle), None)

        // --- Query-stage (QS) optimization request, with pruning rules:
        // skip scan stages and stages smaller than the advisory size.
        val inputMb = inputs.map(_.mb).sum
        val thetaS = hooks match {
          case Some(h) if !sub.isScan && inputMb > thetaP.advisoryPartitionMb =>
            qsSent += 1
            h.onQueryStage(sub, inputMb, algo, s0)
          case _ => s0
        }

        // A child skips its shuffle write iff its parent join was compiled BHJ.
        val writes = g.writesShuffle(sub.id, compiled.get)
        val cost = CostModel.stageCost(spec, sub, inputs, modes, algo, writes, c, thetaP, thetaS)
        val f = noise()
        (sub, algo, cost.copy(workCoreSec = cost.workCoreSec * f, maxTaskSec = cost.maxTaskSec * f))
      }

      // Stages at the same level share the cluster: wall time is bounded by
      // total work over the cores and by the slowest task (plus skew).
      val levelWork  = costs.map(_._3.workCoreSec).sum
      val levelMax   = costs.map(_._3.maxTaskSec).max
      val levelTasks = costs.map(_._3.partitions).sum
      val levelExtra = costs.map(_._3.wallExtraSec).sum
      val levelIoMb  = costs.map(_._3.ioMb).sum
      // Compute-bound time, bounded below by the slowest task and by the
      // cluster's aggregate IO bandwidth (cores cannot buy bandwidth).
      val levelWall = spec.stageLaunchSec +
        math.max(math.max(levelWork / math.min(cores, math.max(1, levelTasks)), levelMax),
          levelIoMb / spec.clusterIoMbPerSec) +
        levelTasks * spec.taskOverheadSec / cores + levelExtra

      wall += levelWall
      io += levelIoMb

      // Analytical latency (§4.2): Σ task work / total cores — but bounded
      // below per stage by its slowest task (skew and partition starvation
      // are deterministic effects a planner must see), plus the serialized
      // broadcast wall time.
      def stageAnalytical(cost: CostModel.StageCost): Double =
        math.max(cost.workCoreSec / cores, cost.maxTaskSec) + cost.wallExtraSec
      analytical += costs.map(c => stageAnalytical(c._3)).sum

      costs.foreach { case (sub, algo, cost) =>
        stageExecs += StageExec(
          subQId = sub.id, algo = algo,
          analyticalSec = stageAnalytical(cost),
          ioMb = cost.ioMb,
          siblingCount = subs.size - 1,
          siblingWorkSec = levelWork - cost.workCoreSec)
      }
    }

    QueryExec(
      name = g.name, stages = stageExecs.result(),
      wallSec = wall, analyticalSec = analytical, ioMb = io, costUsd = spec.costUsd(c, wall, io),
      lqpRequestsSent = lqpSent, qsRequestsSent = qsSent)
  }

  /** Plain Spark behaviour: compile with one `θp` copy on estimates, then
    * run AQE with the same static copies (no runtime optimizer).
    */
  def runStatic(g: QueryGraph, conf: Configuration, noiseSeed: Long = -1L): QueryExec =
    execute(g, conf.c, compilePlan(g, _ => conf.p), conf.p, conf.s, None, noiseSeed)
}
