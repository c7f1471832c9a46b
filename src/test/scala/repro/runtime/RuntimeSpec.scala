package repro.runtime

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterSpec, CostModel, RuntimeHooks, Simulator}
import repro.model.{QueryModels, TestModels}
import repro.moo.{FineConfig, Pareto}
import repro.params.{SparkParams, ThetaC, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, PerturbTruth, QueryGraph, SubQ, WorkloadGen}
import scala.util.Random

/** θp/θs aggregation (§C.2.1) and the runtime optimizer hooks (§5.2). */
class RuntimeSpec extends AnyFunSuite {
  private val g = WorkloadGen.queries("tpch")(8) // Q9, 12 subQs
  // Q8: the subQ reading the most true input (2) is not the one the CBO
  // believes reads the most (10).
  private val q8 = WorkloadGen.queries("tpch")(7)
  private val rnd = new Random(12)

  private def randomFine(q: QueryGraph = g, r: Random = rnd): FineConfig = FineConfig(
    Array.fill(SparkParams.dC)(r.nextDouble()),
    Vector.fill(q.numSubQs)(Array.fill(SparkParams.dP)(r.nextDouble())),
    Vector.fill(q.numSubQs)(Array.fill(SparkParams.dS)(r.nextDouble())))

  private def dominant(q: QueryGraph): Int = q.estimated.subQs.maxBy(_.trueInputBytes).id

  test("aggregated broadcast threshold is the min over join subQs, floored at the default") {
    val fc = randomFine()
    val agg = ThetaAggregator.aggregateP(g, fc)
    val joinMins = g.subQs.indices.filter(i => g.subQs(i).isJoin)
      .map(i => fc.thetaP(i).broadcastThresholdMb)
    assert(agg.broadcastThresholdMb ==
      math.max(ThetaP.default.broadcastThresholdMb, joinMins.min))
  }

  test("aggregated SHJ threshold follows the same min-with-floor rule") {
    val fc = randomFine()
    val agg = ThetaAggregator.aggregateP(g, fc)
    val joinMins = g.subQs.indices.filter(i => g.subQs(i).isJoin)
      .map(i => fc.thetaP(i).shuffledHashThresholdMb)
    assert(agg.shuffledHashThresholdMb ==
      math.max(ThetaP.default.shuffledHashThresholdMb, joinMins.min))
  }

  test("non-threshold parameters come from the dominant (largest-input) subQ") {
    assert(dominant(q8) != q8.subQs.maxBy(_.trueInputBytes).id)
    for (q <- Seq(g, q8)) {
      val fc = randomFine(q)
      val agg = ThetaAggregator.aggregateP(q, fc)
      val dom = dominant(q)
      assert(agg.shufflePartitions == fc.thetaP(dom).shufflePartitions, q.name)
      assert(agg.advisoryPartitionMb == fc.thetaP(dom).advisoryPartitionMb, q.name)
    }
  }

  test("θs aggregation picks the dominant subQ's copy") {
    for (q <- Seq(g, q8)) {
      val fc = randomFine(q)
      assert(ThetaAggregator.aggregateS(q, fc) == fc.thetaS(dominant(q)), q.name)
    }
  }

  test("aggregation sees only estimates: perturbing the truth moves no submission copy") {
    (WorkloadGen.queries("tpch") ++ WorkloadGen.queries("tpcds")).zipWithIndex.foreach { case (q, i) =>
      val fc = randomFine(q, new Random(i))
      val h = PerturbTruth(q, seed = i)
      assert(ThetaAggregator.aggregateP(h, fc) == ThetaAggregator.aggregateP(q, fc), q.name)
      assert(ThetaAggregator.aggregateS(h, fc) == ThetaAggregator.aggregateS(q, fc), q.name)
    }
  }

  test("aggregation with no joins falls back to the defaults for thresholds") {
    val q1 = WorkloadGen.queries("tpch")(0)
    val fc = FineConfig(
      Array.fill(SparkParams.dC)(0.5),
      Vector.fill(q1.numSubQs)(Array.fill(SparkParams.dP)(0.9)),
      Vector.fill(q1.numSubQs)(Array.fill(SparkParams.dS)(0.9)))
    val agg = ThetaAggregator.aggregateP(q1, fc)
    assert(agg.broadcastThresholdMb >= ThetaP.default.broadcastThresholdMb)
  }

  test("aggregation rejects configurations of the wrong arity") {
    val fc = randomFine()
    intercept[IllegalArgumentException](ThetaAggregator.aggregateP(WorkloadGen.queries("tpch")(0), fc))
  }

  // ---- runtime optimizer -------------------------------------------------

  private val cU = Array.fill(SparkParams.dC)(0.5)

  private def optimizer(): RuntimeOptimizer = {
    val qm = new QueryModels(g, TestModels.untrained(), ClusterSpec.default)
    new RuntimeOptimizer(qm, cU, pref = (0.9, 0.1))
  }

  test("hooks count their invocations and time") {
    val sim = new Simulator()
    val opt = optimizer()
    val compiled = sim.compilePlan(g, _ => ThetaP.default)
    val e = sim.execute(g, repro.params.ThetaC.default, compiled, ThetaP.default, ThetaS.default, Some(opt))
    assert(e.lqpRequestsSent > 0)
    assert(e.qsRequestsSent > 0)
    assert(opt.optTimeSec > 0)
  }

  test("runtime hook counts match the simulator's sent-request accounting") {
    val sim = new Simulator()
    val opt = optimizer()
    var lqpCalls = 0; var qsCalls = 0
    val counting = new RuntimeHooks {
      def onCollapsedPlan(graph: QueryGraph, joins: Vector[SubQ], out: Map[Int, CostModel.SideStats], p: ThetaP) = {
        lqpCalls += 1; opt.onCollapsedPlan(graph, joins, out, p)
      }
      def onQueryStage(sub: SubQ, inputMb: Double, algo: Option[JoinAlgo], s: ThetaS) = {
        qsCalls += 1; opt.onQueryStage(sub, inputMb, algo, s)
      }
    }
    val compiled = sim.compilePlan(g, _ => ThetaP.default)
    val e = sim.execute(g, repro.params.ThetaC.default, compiled, ThetaP.default, ThetaS.default, Some(counting))
    assert(lqpCalls == e.lqpRequestsSent)
    assert(qsCalls == e.qsRequestsSent)
  }

  test("runtime optimization is deterministic") {
    val sim = new Simulator()
    def run(): Double = {
      val opt = optimizer()
      val compiled = sim.compilePlan(g, _ => ThetaP.default)
      sim.execute(g, repro.params.ThetaC.default, compiled, ThetaP.default, ThetaS.default, Some(opt)).wallSec
    }
    assert(run() == run())
  }

  // The hooks' rule and objectives, applied here from outside: WUN over the
  // Pareto set of `current +: candidates` scored by `objectives`.
  private def wunPick[T](current: T, candidates: Vector[T], pref: (Double, Double))(
      objectives: T => (Double, Double)): T =
    Pareto.wun(Pareto.skyline((current +: candidates).map { t =>
      val (lat, cost) = objectives(t); Pareto.Sol(lat, cost, t)
    }), pref).payload

  private def lqpObjectives(qm: QueryModels, ready: Vector[SubQ])(p: ThetaP): (Double, Double) = {
    val u = cU ++ p.toUnit ++ ThetaS.default.toUnit
    ready.map { j => val (l, io) = qm.predictSubQTrue(j.id, u); qm.toObjectives(l, io, ThetaC.fromUnit(cU)) }
      .foldLeft((0.0, 0.0)) { case ((lat, cost), (l, c)) => (lat + l, cost + c) }
  }

  private def qsObjectives(qm: QueryModels, sub: SubQ, algo: Option[JoinAlgo], gamma: (Double, Double))(
      s: ThetaS): (Double, Double) = {
    val u = cU ++ ThetaP.default.toUnit ++ s.toUnit
    val (l, io) = qm.predictQs(sub.id, u, JoinAlgo.code(algo), gamma._1, gamma._2)
    qm.toObjectives(l, io, ThetaC.fromUnit(cU))
  }

  test("both hooks recommend by WUN over the Pareto set of their re-scored candidates") {
    val qm = new QueryModels(g, TestModels.untrained(), ClusterSpec.default)
    // Incumbents off the candidate list: a fixed copy, and the hook's pick
    // from it nudged, which scores close to that pick.
    def nudged(u: Vector[Double]): Vector[Double] = u.map(x => math.min(1.0, x + 0.02))
    val pFixed = ThetaP.fromUnit(Vector.fill(SparkParams.dP)(0.3))
    val sFixed = ThetaS.fromUnit(Vector.fill(SparkParams.dS)(0.3))
    var replaced = 0
    for (pref <- Seq((1.0, 0.0), (0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (0.0, 1.0))) {
      g.levels.map(_.filter(_.isJoin)).filter(_.nonEmpty).foreach { ready =>
        def hook(current: ThetaP): ThetaP = {
          val opt = new RuntimeOptimizer(qm, cU, pref)
          val picked = opt.onCollapsedPlan(g, ready, Map.empty, current)
          assert(picked == wunPick(current, opt.pCandidates, pref)(lqpObjectives(qm, ready)),
            s"${ready.map(_.id)} $pref")
          if (picked != current) replaced += 1
          picked
        }
        hook(ThetaP.fromUnit(nudged(hook(pFixed).toUnit)))
      }
      g.subQs.filterNot(_.isScan).foreach { sub =>
        val algo = Option.when(sub.isJoin)(JoinAlgo.SMJ)
        val (n, mb) = g.contention(sub.id)
        def hook(current: ThetaS): ThetaS = {
          val opt = new RuntimeOptimizer(qm, cU, pref)
          val picked = opt.onQueryStage(sub, sub.trueInputBytes / 1048576.0, algo, current)
          assert(picked == wunPick(current, opt.sCandidates, pref)(qsObjectives(qm, sub, algo, (n, mb))),
            s"${sub.id} $pref")
          if (picked != current) replaced += 1
          picked
        }
        hook(ThetaS.fromUnit(nudged(hook(sFixed).toUnit)))
      }
    }
    assert(replaced > 0)
  }

  test("the QS hook scores θs with the stage's contention from the graph, not (0, 0)") {
    val models = TestModels.untrained(seed = 5)
    val zeroGammaDiffers = for {
      q <- WorkloadGen.queries("tpcds")
      qm = new QueryModels(q, models, ClusterSpec.default)
      pref <- Seq((0.9, 0.1), (0.5, 0.5), (0.1, 0.9))
      sub <- q.subQs if !sub.isScan && q.contention(sub.id)._1 > 0
    } yield {
      val algo = Option.when(sub.isJoin)(JoinAlgo.SMJ)
      val opt = new RuntimeOptimizer(qm, cU, pref)
      // The hook's candidates, re-scored with the given γ.
      def rescored(gamma: (Double, Double)): ThetaS =
        wunPick(ThetaS.default, opt.sCandidates, pref)(qsObjectives(qm, sub, algo, gamma))
      val (n, mb) = q.contention(sub.id)
      val hook = opt.onQueryStage(sub, sub.trueInputBytes / 1048576.0, algo, ThetaS.default)
      assert(hook == rescored((n, mb)), s"${q.name}/${sub.id} $pref")
      rescored((0.0, 0.0)) != hook
    }
    // γ moves the pick somewhere, so the check above tells the two apart.
    assert(zeroGammaDiffers.contains(true))
  }
}
