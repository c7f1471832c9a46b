package repro.moo

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestProp.forAllSeeds
import repro.cluster.ClusterSpec
import repro.model.{QueryModels, TestModels}
import repro.moo.Hmooc._
import repro.moo.Pareto.Sol
import repro.params.SparkParams
import repro.workload.{PerturbTruth, QueryGraph, WorkloadGen}

/** HMOOC: effective-set generation, the three DAG aggregations, and the
  * formal guarantees of §5.1 / Appendix B.
  */
class HmoocSpec extends AnyFunSuite {

  private val dPs = SparkParams.dP + SparkParams.dS

  private def randomCand(rnd: Random, m: Int, perSubQ: Int): CandSols =
    CandSols(
      Array.fill(SparkParams.dC)(rnd.nextDouble()),
      Vector.fill(m)(Vector.tabulate(perSubQ)(j =>
        SubSol(rnd.nextDouble() * 10 + 0.1, rnd.nextDouble() + 0.01, j))))

  /** Brute-force query-level Pareto front: enumerate every combination of
    * one solution per subQ under this fixed θc.
    */
  private def bruteFront(cand: CandSols): Set[(Double, Double)] = {
    def combos(lists: Vector[Vector[SubSol]]): Vector[(Double, Double)] =
      lists.foldLeft(Vector((0.0, 0.0))) { (acc, sols) =>
        for (a <- acc; s <- sols) yield (a._1 + s.lat, a._2 + s.cost)
      }
    val all = combos(cand.perSubQ).map { case (l, c) => Sol(l, c, ()) }
    Pareto.skyline(all).map(s => (s.f1, s.f2)).toSet
  }

  // Summation order differs between the solvers and the brute force, so
  // compare objective points up to floating-point round-off.
  private def canon(pts: Set[(Double, Double)]): Set[(Long, Long)] =
    pts.map { case (a, b) => (math.round(a * 1e6), math.round(b * 1e6)) }

  test("HMOOC1 (divide-and-conquer) returns the full query-level Pareto front (Prop B.1)") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 2 + rnd.nextInt(3), perSubQ = 2 + rnd.nextInt(4))
      val got = aggregateDivide(cand).map(s => (s.f1, s.f2)).toSet
      assert(canon(got) == canon(bruteFront(cand)))
    }
  }

  test("HMOOC2 (WS approximation) returns a subset of the Pareto front (Lemma 1)") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 2 + rnd.nextInt(3), perSubQ = 2 + rnd.nextInt(4))
      val full = canon(bruteFront(cand))
      val ws = canon(aggregateWs(cand, nWeights = 7).map(s => (s.f1, s.f2)).toSet)
      assert(ws.nonEmpty)
      assert(ws.subsetOf(full), s"WS points $ws not all in front $full")
    }
  }

  test("HMOOC3 (boundary) produces the per-objective extreme points (Prop 5.2/5.3)") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 3, perSubQ = 4)
      val ext = aggregateBoundary(cand)
      assert(ext.size == 2) // k = 2 objectives
      val full = bruteFront(cand)
      // The latency extreme matches the true minimum query-level latency.
      assert(math.abs(ext.map(_.f1).min - full.map(_._1).min) < 1e-9)
      assert(math.abs(ext.map(_.f2).min - full.map(_._2).min) < 1e-9)
    }
  }

  test("Prop 5.1: per-subQ dominated solutions never contribute to the front") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 3, perSubQ = 5)
      // Restrict each subQ to its local Pareto solutions and re-aggregate.
      val restricted = cand.copy(perSubQ = cand.perSubQ.map { sols =>
        Pareto.skyline(sols.map(s => Sol(s.lat, s.cost, s))).map(_.payload)
      })
      assert(bruteFront(restricted) == bruteFront(cand))
    }
  }

  test("HMOOC payloads carry one θp/θs copy per subQ") {
    forAllSeeds(25) { rnd =>
      // Distinct pool indices per subQ, so a pick from the wrong subQ shows.
      val base = randomCand(rnd, m = 2 + rnd.nextInt(3), perSubQ = 2 + rnd.nextInt(4))
      val cand = base.copy(perSubQ = base.perSubQ.zipWithIndex.map { case (sols, i) =>
        sols.map(s => s.copy(poolIdx = s.poolIdx + 100 * i))
      })
      val ext = aggregateBoundary(cand)
      assert(ext(0).payload == cand.perSubQ.map(_.minBy(_.lat).poolIdx))
      assert(ext(1).payload == cand.perSubQ.map(_.minBy(_.cost).poolIdx))
      // Every variant's point is the sum of the subQ solutions it selects.
      (ext ++ aggregateDivide(cand) ++ aggregateWs(cand, nWeights = 7)).foreach { sol =>
        assert(sol.payload.size == cand.perSubQ.size)
        val picked = sol.payload.zip(cand.perSubQ).map { case (pi, sols) =>
          val s = sols.find(_.poolIdx == pi)
          assert(s.isDefined, s"pool index $pi is not among its subQ's solutions")
          s.get
        }
        assert(math.abs(picked.map(_.lat).sum - sol.f1) < 1e-9)
        assert(math.abs(picked.map(_.cost).sum - sol.f2) < 1e-9)
      }
    }
    // solve pairs each front point with its own θc and slices the selected
    // pool entries into the subQs' θp and θs copies: re-scoring the
    // configuration reproduces the point exactly (same summation order).
    val front = Hmooc.solve(qm, Settings(nInitC = 16, nClusters = 4, nPool = 24, nEnrich = 8)).front
    assert(front.map(_.payload.cU.toSeq).distinct.size > 1, "front points share one θc")
    front.foreach { sol =>
      val fc = sol.payload
      assert(fc.m == qm.m)
      (0 until fc.m).foreach(i => assert(fc.pU(i).length == SparkParams.dP && fc.sU(i).length == SparkParams.dS))
      val objs = Vector.tabulate(fc.m)(i => qm.subQObjectives(i, fc.unit19(i), fc.thetaC))
      assert((objs.map(_._1).sum, objs.map(_._2).sum) == (sol.f1, sol.f2))
    }
  }

  // ---- building blocks --------------------------------------------------

  test("kmeans assigns every point to its nearest centroid") {
    val rnd = new Random(5)
    val pts = Vector.fill(40)(Array.fill(4)(rnd.nextDouble()))
    val (cents, assign) = kmeans(pts, 5, seed = 2)
    assert(cents.size == 5 && assign.size == 40)
    pts.zip(assign).foreach { case (p, a) =>
      def d(c: Array[Double]) = c.zip(p).map { case (x, y) => (x - y) * (x - y) }.sum
      assert(d(cents(a)) <= cents.map(d).min + 1e-9)
    }
  }

  test("kmeans caps k at the population size") {
    val pts = Vector(Array(0.1), Array(0.9))
    val (cents, _) = kmeans(pts, 10, seed = 1)
    assert(cents.size == 2)
  }

  test("crossover produces unseen children of the right width") {
    val rnd = new Random(3)
    val pop = Vector.fill(10)(Array.fill(SparkParams.dC)(rnd.nextDouble()))
    val kids = crossover(pop, 8, seed = 4)
    assert(kids.nonEmpty && kids.size <= 8)
    kids.foreach { k =>
      assert(k.length == SparkParams.dC)
      assert(!pop.exists(_.toSeq == k.toSeq))
      // Each coordinate comes from one of the parents' gene pools.
      k.zipWithIndex.foreach { case (x, d) => assert(pop.exists(p => p(d) == x)) }
    }
  }

  test("crossover on a tiny population returns nothing rather than looping") {
    assert(crossover(Vector(Array(0.5)), 5, 1).isEmpty)
  }

  test("defaultPoolEntry encodes the Spark defaults in unit coordinates") {
    val d = defaultPoolEntry
    assert(d.length == dPs)
    assert(d.forall(x => x >= 0.0 && x <= 1.0))
  }

  // ---- end-to-end solve on a (random-model) query -----------------------

  private lazy val qm = new QueryModels(WorkloadGen.queries("tpch")(2), TestModels.untrained(), ClusterSpec.default)

  test("solve returns a non-empty, non-dominated front") {
    val r = Hmooc.solve(qm, Settings(nInitC = 16, nClusters = 4, nPool = 24, nEnrich = 8))
    assert(r.front.nonEmpty)
    r.front.foreach { a =>
      assert(!r.front.exists(b => Pareto.dominates((b.f1, b.f2), (a.f1, a.f2))))
      assert(a.payload.m == qm.m)
    }
    assert(r.solveTimeSec > 0)
  }

  test("solve is deterministic in the settings seed") {
    val s = Settings(nInitC = 12, nClusters = 3, nPool = 16, nEnrich = 4, seed = 9L)
    val a = Hmooc.solve(qm, s)
    val b = Hmooc.solve(qm, s)
    assert(a.front.map(x => (x.f1, x.f2)) == b.front.map(x => (x.f1, x.f2)))
  }

  test("the three aggregation variants agree on the latency extreme") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 2 + rnd.nextInt(3), perSubQ = 2 + rnd.nextInt(4))
      val b = aggregateBoundary(cand).map(_.f1).min
      val d = aggregateDivide(cand).map(_.f1).min
      val w = aggregateWs(cand, nWeights = 11).map(_.f1).min
      assert(math.abs(b - d) < 1e-6)
      assert(w >= d - 1e-6)
    }
  }

  test("HMOOC1's hypervolume dominates the approximations'") {
    forAllSeeds(25) { rnd =>
      val cand = randomCand(rnd, m = 2 + rnd.nextInt(3), perSubQ = 2 + rnd.nextInt(4))
      val fronts = Vector(aggregateDivide(cand), aggregateBoundary(cand), aggregateWs(cand, nWeights = 7))
        .map(_.map(s => (s.f1, s.f2)))
      // One reference point for all three, beyond every variant's points.
      val ref = (1.1 * fronts.flatten.map(_._1).max, 1.1 * fronts.flatten.map(_._2).max)
      val hv = fronts.map(Pareto.hypervolume(_, ref))
      // Prop B.1: HMOOC1 returns the exact front, so no subset beats it.
      assert(hv(0) >= hv(1) * (1 - 1e-9), s"HMOOC1 ${hv(0)} < HMOOC3 ${hv(1)}")
      assert(hv(0) >= hv(2) * (1 - 1e-9), s"HMOOC1 ${hv(0)} < HMOOC2 ${hv(2)}")
    }
  }

  test("solve sees only estimates: perturbed truth leaves the front unchanged") {
    val models = TestModels.untrained()
    val settings = Settings(nInitC = 12, nClusters = 3, nPool = 16, nEnrich = 4)
    Seq(2, 4, 8).foreach { t =>
      val g = WorkloadGen.queries("tpch")(t)
      val h = PerturbTruth(g, seed = t)
      assert(h.subQs.map(_.trueOutBytes) != g.subQs.map(_.trueOutBytes), s"${g.name}: truth unchanged")
      def front(q: QueryGraph) =
        Hmooc.solve(new QueryModels(q, models, ClusterSpec.default), settings).front.map(x => (x.f1, x.f2))
      assert(front(h) == front(g), g.name)
    }
  }

  test("recommendation adapts to the preference weights") {
    val r = Hmooc.solve(qm, Settings(nInitC = 16, nClusters = 4, nPool = 24, nEnrich = 8))
    val fast = r.recommend((1.0, 0.0))
    val cheap = r.recommend((0.0, 1.0))
    assert(fast.f1 <= cheap.f1)
    assert(cheap.f2 <= fast.f2)
  }
}
