package repro.runtime

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterSpec, CostModel, RuntimeHooks, Simulator}
import repro.model.{QueryModels, TestModels}
import repro.moo.FineConfig
import repro.params.{SparkParams, ThetaP, ThetaS}
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

  private def optimizer(): RuntimeOptimizer = {
    val qm = new QueryModels(g, TestModels.untrained(), ClusterSpec.default)
    new RuntimeOptimizer(qm, Array.fill(SparkParams.dC)(0.5), pref = (0.9, 0.1))
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

  // ---- the pick rule: (candidate, latency, cost), incumbent first --------

  private def pick(pref: (Double, Double), scored: (String, Double, Double)*): String =
    RuntimeOptimizer.pickPreferred(scored.toVector, pref)

  test("the hysteresis keeps the incumbent when differences are small") {
    // Normalized scores: incumbent 0.05/10.05 ≈ 0.005, best 0: inside the
    // margin of 0.08 · max(score, 0.1) = 0.008.
    assert(pick((1.0, 0.0), ("incumbent", 10.0, 1.0), ("better", 9.95, 1.0), ("worst", 20.0, 1.0)) ==
      "incumbent")
  }

  test("the hysteresis replaces the incumbent beyond the margin") {
    // Incumbent 1/11 ≈ 0.091 above the best: beyond the 0.008 margin.
    assert(pick((1.0, 0.0), ("incumbent", 10.0, 1.0), ("better", 9.0, 1.0), ("worst", 20.0, 1.0)) ==
      "better")
  }

  test("preference (1, 0) picks the minimum latency") {
    assert(pick((1.0, 0.0), ("incumbent", 30.0, 1.0), ("fast", 10.0, 5.0), ("cheap", 20.0, 0.5)) == "fast")
  }

  test("preference (0, 1) picks the minimum cost") {
    assert(pick((0.0, 1.0), ("incumbent", 30.0, 1.0), ("fast", 10.0, 5.0), ("cheap", 20.0, 0.5)) == "cheap")
  }
}
