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

/** Execution record of one query run. */
final case class QueryExec(
    name: String,
    stages: Vector[StageExec],
    wallSec: Double,
    analyticalSec: Double,
    ioMb: Double,
    costUsd: Double,
    lqpRequestsNaive: Int,
    lqpRequestsSent: Int,
    qsRequestsNaive: Int,
    qsRequestsSent: Int,
    joinAlgos: Map[Int, JoinAlgo])

/** Runtime-optimization hook points — the two request types of Fig 2.
  *
  * `onCollapsedPlan` fires when completed-stage statistics are folded into
  * the collapsed plan and join stages are about to be planned; it may return
  * a re-tuned `θp`. `onQueryStage` fires per query stage before execution
  * and may return a re-tuned `θs`. A `None` return means "no request sent"
  * (the pruning rules of §C.2.2 live in the caller; hooks see only
  * unpruned requests).
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

  /** CBO-estimated output statistics per subQ (the compile-time view). */
  def estOut(g: QueryGraph): Map[Int, SideStats] =
    g.subQs.map(s => s.id -> SideStats(s.estOutBytes, s.estOutRows)).toMap

  /** Compile-time physical plan: one join algorithm per join stage, chosen
    * from *estimated* statistics under that subQ's `θp` copy.
    */
  def compilePlan(g: QueryGraph, thetaPFor: SubQ => ThetaP): Map[Int, JoinAlgo] = {
    val est = estOut(g)
    g.subQs.filter(_.isJoin).map { sub =>
      val (_, build) = g.probeBuild(sub, est(_).bytes)
      sub.id -> JoinAlgo.choose(est(build).mb, thetaPFor(sub))
    }.toMap
  }

  /** Runtime upgrade rule: SMJ may become SHJ or BHJ; SHJ and BHJ stick. */
  def runtimeAlgo(compiled: JoinAlgo, trueBuildMb: Double, p: ThetaP): JoinAlgo =
    compiled match {
      case JoinAlgo.SMJ => JoinAlgo.choose(trueBuildMb, p)
      case other        => other
    }

  /** Topological level of each subQ (children always at lower levels). */
  def levels(g: QueryGraph): Map[Int, Int] = {
    val lv = Array.fill(g.numSubQs)(0)
    g.subQs.foreach { s =>
      lv(s.id) = if (s.children.isEmpty) 0 else s.children.map(lv).max + 1
    }
    lv.zipWithIndex.map { case (l, i) => i -> l }.toMap
  }

  /** Execute `g` under context `θc`, a compiled plan, and initial `θp`/`θs`.
    *
    * @param hooks     runtime optimizer; `None` runs plain AQE with the
    *                  static parameter copies (Spark's own behaviour)
    * @param noiseSeed deterministic observation noise on task work (>=0
    *                  enables ±~8% log-normal noise; <0 disables)
    */
  def execute(
      g: QueryGraph,
      c: ThetaC,
      compiled: Map[Int, JoinAlgo],
      p0: ThetaP,
      s0: ThetaS,
      hooks: Option[RuntimeHooks],
      noiseSeed: Long = -1L): QueryExec = {

    val cores   = math.min(c.totalCores, spec.totalCores)
    val out     = trueOut(g)
    val lv      = levels(g)
    val byLevel = g.subQs.groupBy(s => lv(s.id)).toVector.sortBy(_._1)

    val rnd = if (noiseSeed >= 0) Some(new Random(noiseSeed)) else None
    def noise(): Double = rnd.map(r => math.exp(r.nextGaussian() * 0.06)).getOrElse(1.0)

    var thetaP = p0
    // Spark-context construction: scheduler bring-up plus executor launches
    // (the price of asking for a large context on a short query).
    var wall = spec.contextStartupSec + spec.execStartupSec * c.execInstances
    var analytical = 0.0; var io = 0.0
    var lqpSent = 0; var qsSent = 0; var qsNaive = 0
    val stageExecs = Vector.newBuilder[StageExec]
    val finalAlgos = collection.mutable.Map[Int, JoinAlgo]()

    byLevel.foreach { case (_, subs) =>
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
        val algo = if (sub.isJoin) {
          val (_, build) = g.probeBuild(sub, out(_).bytes)
          val a = runtimeAlgo(compiled(sub.id), out(build).mb, thetaP)
          finalAlgos(sub.id) = a
          Some(a)
        } else None

        // --- Query-stage (QS) optimization request, with pruning rules:
        // skip scan stages and stages smaller than the advisory size.
        val inputMb =
          if (sub.isScan) sub.trueInputBytes / 1048576.0
          else sub.children.map(ch => out(ch).mb).sum
        qsNaive += 1
        val thetaS = hooks match {
          case Some(h) if !sub.isScan && inputMb > thetaP.advisoryPartitionMb =>
            qsSent += 1
            h.onQueryStage(sub, inputMb, algo, s0)
          case _ => s0
        }

        val (inputs, modes) =
          if (sub.isScan)
            (Vector(SideStats(sub.trueInputBytes, sub.trueInputRows)), Vector(ReadMode.Table: ReadMode))
          else if (sub.isJoin) {
            val (probe, build) = g.probeBuild(sub, out(_).bytes)
            val probeMode: ReadMode =
              if (compiled.get(sub.id).contains(JoinAlgo.BHJ)) ReadMode.Pipelined
              else if (algo.contains(JoinAlgo.BHJ)) ReadMode.LocalShuffle
              else ReadMode.Shuffle
            (Vector(out(probe), out(build)), Vector(probeMode, ReadMode.Shuffle: ReadMode))
          } else
            (sub.children.map(out), sub.children.map(_ => ReadMode.Shuffle: ReadMode))

        // A child skips its shuffle write iff its parent join was compiled BHJ.
        val writes = g.writesShuffle(sub.id, compiled.get)
        val cost = CostModel.stageCost(spec, sub, inputs, modes, algo, writes, c, thetaP, thetaS)
        val f = noise()
        (sub, cost.copy(workCoreSec = cost.workCoreSec * f, maxTaskSec = cost.maxTaskSec * f))
      }

      // Stages at the same level share the cluster: wall time is bounded by
      // total work over the cores and by the slowest task (plus skew).
      val levelWork  = costs.map(_._2.workCoreSec).sum
      val levelMax   = costs.map(_._2.maxTaskSec).max
      val levelTasks = costs.map(_._2.partitions).sum
      val levelExtra = costs.map(_._2.wallExtraSec).sum
      val levelIoMb  = costs.map(_._2.ioMb).sum
      // Compute-bound time, bounded below by the slowest task and by the
      // cluster's aggregate IO bandwidth (cores cannot buy bandwidth).
      val levelWall = spec.stageLaunchSec +
        math.max(math.max(levelWork / math.min(cores, math.max(1, levelTasks)), levelMax),
          levelIoMb / spec.clusterIoMbPerSec) +
        levelTasks * spec.taskOverheadSec / cores + levelExtra

      wall += levelWall
      io += costs.map(_._2.ioMb).sum

      // Analytical latency (§4.2): Σ task work / total cores — but bounded
      // below per stage by its slowest task (skew and partition starvation
      // are deterministic effects a planner must see), plus the serialized
      // broadcast wall time.
      def stageAnalytical(cost: CostModel.StageCost): Double =
        math.max(cost.workCoreSec / cores, cost.maxTaskSec) + cost.wallExtraSec
      analytical += costs.map(c => stageAnalytical(c._2)).sum

      costs.foreach { case (sub, cost) =>
        stageExecs += StageExec(
          subQId = sub.id, algo = finalAlgos.get(sub.id),
          analyticalSec = stageAnalytical(cost),
          ioMb = cost.ioMb,
          siblingCount = subs.size - 1,
          siblingWorkSec = levelWork - cost.workCoreSec)
      }
    }

    QueryExec(
      name = g.name, stages = stageExecs.result(),
      wallSec = wall, analyticalSec = analytical, ioMb = io, costUsd = spec.costUsd(c, wall, io),
      lqpRequestsNaive = g.numSubQs, lqpRequestsSent = lqpSent,
      qsRequestsNaive = qsNaive, qsRequestsSent = qsSent,
      joinAlgos = finalAlgos.toMap)
  }

  /** Plain Spark behaviour: compile with one `θp` copy on estimates, then
    * run AQE with the same static copies (no runtime optimizer).
    */
  def runStatic(g: QueryGraph, conf: Configuration, noiseSeed: Long = -1L): QueryExec =
    execute(g, conf.c, compilePlan(g, _ => conf.p), conf.p, conf.s, None, noiseSeed)
}
