package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.params.{Configuration, Sampling, SparkParams, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, PerturbTruth, WorkloadGen}
import repro.cluster.CostModel.SideStats

/** The AQE execution loop: planning, runtime upgrades, scheduling, costs. */
class SimulatorSpec extends AnyFunSuite {
  private val sim = new Simulator()
  private val q3 = WorkloadGen.queries("tpch")(2)
  private val q9 = WorkloadGen.queries("tpch")(8)
  private val dflt = Configuration.default
  private val canonical = WorkloadGen.queries("tpch") ++ WorkloadGen.queries("tpcds")

  test("execution is deterministic without noise") {
    val a = sim.runStatic(q9, dflt)
    val b = sim.runStatic(q9, dflt)
    assert(a.wallSec == b.wallSec && a.costUsd == b.costUsd && a.ioMb == b.ioMb)
  }

  test("noise perturbs latency mildly and deterministically per seed") {
    val clean = sim.runStatic(q9, dflt)
    val n1 = sim.runStatic(q9, dflt, noiseSeed = 5)
    val n2 = sim.runStatic(q9, dflt, noiseSeed = 5)
    assert(n1.wallSec == n2.wallSec)
    assert(n1.wallSec != clean.wallSec)
    assert(math.abs(n1.wallSec - clean.wallSec) / clean.wallSec < 0.5)
  }

  test("levels respect stage dependencies") {
    canonical.foreach { g =>
      val levelOf = g.levels.zipWithIndex.flatMap { case (subs, l) => subs.map(_.id -> l) }
      assert(levelOf.map(_._1).sorted == g.subQs.map(_.id), s"${g.name}: not every subQ once")
      assert(g.levels.head == g.subQs.filter(_.isScan), s"${g.name}: level 0 is not the scans")
      val lv = levelOf.toMap
      g.subQs.foreach(s => s.children.foreach(c => assert(lv(c) < lv(s.id), s"${g.name}: $c under ${s.id}")))
      g.levels.foreach(subs => assert(subs.map(_.id) == subs.map(_.id).sorted, s"${g.name}: ids out of order"))
    }
  }

  test("every stage executes exactly once") {
    val e = sim.runStatic(q3, dflt)
    assert(e.stages.map(_.subQId).sorted == q3.subQs.map(_.id))
  }

  test("more executors reduce wall latency on a large query") {
    val small = sim.runStatic(q9, dflt.copy(c = dflt.c.copy(execInstances = 2)))
    val large = sim.runStatic(q9, dflt.copy(c = dflt.c.copy(execInstances = 20)))
    assert(large.wallSec < small.wallSec / 2)
  }

  test("more executors raise cloud cost at the high end (diminishing returns)") {
    val mid  = sim.runStatic(q3, dflt.copy(c = dflt.c.copy(execCores = 4, execInstances = 6)))
    val huge = sim.runStatic(q3, dflt.copy(c = dflt.c.copy(execCores = 8, execInstances = 24)))
    assert(huge.costUsd > mid.costUsd)
  }

  test("analytical and wall latency correlate (Fig 5)") {
    val rs = WorkloadGen.queries("tpch").map(g => sim.runStatic(g, dflt, noiseSeed = 1))
    val ana = rs.map(_.analyticalSec).toArray
    val wall = rs.map(_.wallSec).toArray
    assert(repro.model.Metrics.pearson(wall, ana) > 0.9)
    // Ratios cluster near 1 for the heavy queries.
    val heavy = rs.filter(_.wallSec > 30)
    heavy.foreach(r => assert(r.analyticalSec / r.wallSec > 0.5 && r.analyticalSec / r.wallSec < 1.2))
  }

  // ---- parametric join planning ----------------------------------------

  test("chooseAlgo follows the s4/s3 thresholds") {
    val p = ThetaP.default.copy(broadcastThresholdMb = 10,
      shuffledHashThresholdMb = 2, shufflePartitions = 100)
    assert(JoinAlgo.choose(8.0, p) == JoinAlgo.BHJ)
    assert(JoinAlgo.choose(150.0, p) == JoinAlgo.SHJ) // 1.5MB per partition <= 2
    assert(JoinAlgo.choose(5000.0, p) == JoinAlgo.SMJ)
  }

  test("compilePlan decides every join from estimated statistics") {
    val plan = sim.compilePlan(q9, _ => ThetaP.default)
    assert(plan.keySet == q9.subQs.filter(_.isJoin).map(_.id).toSet)
    // Different truth, same estimates: the compiled plan must not move,
    // while the executed run (true statistics) does.
    val thetaPs = ThetaP.default +:
      Sampling.latinHypercube(6, SparkParams.dP, 11L).map(u => ThetaP.fromUnit(u))
    var runsDiffer = 0
    canonical.zipWithIndex.foreach { case (g, i) =>
      val h = PerturbTruth(g, seed = i)
      assert(h.estimated == g.estimated, g.name)
      thetaPs.foreach(p => assert(sim.compilePlan(h, _ => p) == sim.compilePlan(g, _ => p), g.name))
      if (sim.runStatic(h, dflt).wallSec != sim.runStatic(g, dflt).wallSec) runsDiffer += 1
    }
    assert(runsDiffer > canonical.size / 2, s"truth moved only $runsDiffer runs")
  }

  test("s4 = 0 forces sort-merge joins at compile time") {
    val plan = sim.compilePlan(q9, _ => ThetaP.default.copy(
      broadcastThresholdMb = 0, shuffledHashThresholdMb = 0))
    assert(plan.values.forall(_ == JoinAlgo.SMJ))
  }

  test("runtime upgrades SMJ to BHJ when the true build side is small") {
    assert(sim.runtimeAlgo(JoinAlgo.SMJ, 5.0, ThetaP.default) == JoinAlgo.BHJ)
  }

  test("runtime never downgrades a compiled BHJ or SHJ (§5.2)") {
    assert(sim.runtimeAlgo(JoinAlgo.BHJ, 50000.0, ThetaP.default) == JoinAlgo.BHJ)
    assert(sim.runtimeAlgo(JoinAlgo.SHJ, 50000.0, ThetaP.default) == JoinAlgo.SHJ)
  }

  test("executed join algorithms honor the one-way conversion rule") {
    val p0 = ThetaP.default.copy(broadcastThresholdMb = 0, shuffledHashThresholdMb = 0)
    val compiled = sim.compilePlan(q9, _ => p0) // all SMJ
    // At runtime, the default thresholds re-enable BHJ for small true sides.
    val e = sim.execute(q9, dflt.c, compiled, ThetaP.default, ThetaS.default, None)
    assert(e.stages.flatMap(_.algo).contains(JoinAlgo.BHJ))
  }

  test("a compiled BHJ skips the children's shuffle writes (less IO)") {
    // Force the compiled plan directly: all joins BHJ vs all joins SMJ.
    val joins = q3.subQs.filter(_.isJoin).map(_.id)
    val allB = joins.map(_ -> (JoinAlgo.BHJ: JoinAlgo)).toMap
    val none = joins.map(_ -> (JoinAlgo.SMJ: JoinAlgo)).toMap
    val p0 = ThetaP.default.copy(broadcastThresholdMb = 0, shuffledHashThresholdMb = 0)
    val eb = sim.execute(q3, dflt.c, allB, p0, ThetaS.default, None)
    val en = sim.execute(q3, dflt.c, none, p0, ThetaS.default, None)
    assert(eb.ioMb < en.ioMb)
  }

  test("partition sweet spot moves right with total cores (Fig 3c)") {
    def wallAt(cores: Int, s5: Int): Double = {
      val conf = dflt.copy(
        c = dflt.c.copy(execCores = 4, execInstances = cores / 4),
        p = dflt.p.copy(shufflePartitions = s5, advisoryPartitionMb = 16))
      sim.runStatic(q3, conf).wallSec
    }
    val few = Seq(20, 100, 500).map(s5 => s5 -> wallAt(8, s5)).minBy(_._2)._1
    val many = Seq(20, 100, 500).map(s5 => s5 -> wallAt(128, s5)).minBy(_._2)._1
    assert(many >= few)
    // At high core counts, starving the query of partitions is clearly bad.
    assert(wallAt(128, 20) > wallAt(128, 500))
  }

  test("cost components: wall time and IO both contribute") {
    val e = sim.runStatic(q3, dflt)
    val spec = sim.spec
    val hours = e.wallSec / 3600.0
    val expected = spec.cpuUsdPerCoreHour * dflt.c.totalCores * hours +
      spec.memUsdPerGbHour * dflt.c.totalMemGb * hours +
      spec.ioUsdPerGb * e.ioMb / 1024
    assert(math.abs(e.costUsd - expected) / expected < 1e-9)
  }

  test("probeBuild puts the smaller side last (build)") {
    for (g <- Seq(q3, q3.estimated); j <- g.subQs.filter(_.isJoin)) {
      val (probe, build) = g.probeBuild(j)
      assert(Set(probe, build) == j.children.toSet)
      assert(g.subQs(build).trueOutBytes <= g.subQs(probe).trueOutBytes)
    }
  }

  test("estOut differs from trueOut where estimates drift") {
    assert(q9.subQs.zip(q9.estimated.subQs).exists { case (s, e) => e.trueOutBytes != s.trueOutBytes })
  }

  test("no hooks means no optimization requests are sent") {
    val e = sim.runStatic(q9, dflt)
    assert(e.lqpRequestsSent == 0 && e.qsRequestsSent == 0)
    assert(e.lqpRequestsNaive == q9.numSubQs)
  }

  test("request pruning sends far fewer requests than the naive count") {
    val hooks = new RuntimeHooks {
      def onCollapsedPlan(g: repro.workload.QueryGraph, readyJoins: Vector[repro.workload.SubQ],
          trueOut: Map[Int, SideStats], current: ThetaP): ThetaP = current
      def onQueryStage(sub: repro.workload.SubQ, inputMb: Double,
          algo: Option[JoinAlgo], current: ThetaS): ThetaS = current
    }
    val compiled = sim.compilePlan(q9, _ => ThetaP.default)
    val e = sim.execute(q9, dflt.c, compiled, ThetaP.default, ThetaS.default, Some(hooks))
    val naive = e.lqpRequestsNaive + e.qsRequestsNaive
    val sent = e.lqpRequestsSent + e.qsRequestsSent
    assert(sent > 0)
    assert(sent < naive / 2, s"sent $sent of $naive")
  }

  test("context startup charges more wall time for larger contexts") {
    val tiny = WorkloadGen.queries("tpch")(0) // short query: startup visible
    val small = sim.runStatic(tiny, dflt.copy(c = dflt.c.copy(execInstances = 2, execCores = 8)))
    val large = sim.runStatic(tiny, dflt.copy(c = dflt.c.copy(execInstances = 24, execCores = 8)))
    // Same total cores per executor count scaled: larger fleet pays startup.
    assert(large.wallSec + 1e-9 >= large.analyticalSec)
    assert(small.wallSec - small.analyticalSec < large.wallSec - large.analyticalSec + 5)
  }

  test("IO bandwidth ceiling binds at very high core counts") {
    val q = WorkloadGen.queries("tpch")(19) // Q20, IO heavy
    val max = sim.runStatic(q, dflt.copy(c = dflt.c.copy(execCores = 8, execInstances = 24)))
    val ioFloor = max.stages.map(_.ioMb).sum / sim.spec.clusterIoMbPerSec
    assert(max.wallSec > ioFloor)
  }
}
