package repro.moo

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.ClusterSpec
import repro.model.{QueryModels, TestModels}
import repro.workload.WorkloadGen

/** Invariants of the query-level baselines (MO-WS and SO-FW). */
class BaselinesSpec extends AnyFunSuite {
  private lazy val qm =
    new QueryModels(WorkloadGen.queries("tpch")(2), TestModels.untrained(), ClusterSpec.default)

  private def assertNonDominated(r: MooResult): Unit =
    r.front.foreach { a =>
      assert(!r.front.exists(b => Pareto.dominates((b.f1, b.f2), (a.f1, a.f2))))
    }

  test("MO-WS returns a small non-dominated front (poor WS coverage, Fig 4)") {
    val (r, _) = Baselines.wsAndSoFw(qm, Vector.empty, nSamples = 400, nWeights = 11, seed = 1)
    assert(r.front.nonEmpty)
    assert(r.front.size <= 11)
    assertNonDominated(r)
    assert(r.solveTimeSec > 0)
  }

  test("MO-WS is deterministic in the seed") {
    val prefs = Vector((0.9, 0.1))
    val (a, soA) = Baselines.wsAndSoFw(qm, prefs, 300, 11, seed = 5)
    val (b, soB) = Baselines.wsAndSoFw(qm, prefs, 300, 11, seed = 5)
    assert(a.front.map(s => (s.f1, s.f2)) == b.front.map(s => (s.f1, s.f2)))
    assert(soA.map { case (w, s) => w -> (s.f1, s.f2) } == soB.map { case (w, s) => w -> (s.f1, s.f2) })
  }

  test("MO-WS solutions replicate one copy across all subQs (query-level)") {
    val (r, so) = Baselines.wsAndSoFw(qm, Vector((0.5, 0.5)), 200, 5, seed = 2)
    (r.front ++ so.values).foreach { s =>
      val fc = s.payload
      assert(fc.m == qm.m)
      (1 until fc.m).foreach { i =>
        assert(fc.pU(i).toSeq == fc.pU(0).toSeq && fc.sU(i).toSeq == fc.sU(0).toSeq)
      }
    }
  }

  test("SO-FW returns exactly one solution") {
    val (_, so) = Baselines.wsAndSoFw(qm, Vector((0.9, 0.1)), nSamples = 300, seed = 8)
    assert(so.keySet == Set((0.9, 0.1)))
  }

  test("SO-FW collapses most weight vectors onto the same pick (Fig 4)") {
    val (_, sols) = Baselines.wsAndSoFw(qm,
      Vector((0.1, 0.9), (0.3, 0.7), (0.5, 0.5), (0.7, 0.3), (0.9, 0.1)),
      nSamples = 500, seed = 9)
    val distinct = sols.values.map(s => (s.f1, s.f2)).toSet
    assert(distinct.size <= 3, s"SO-FW produced ${distinct.size} distinct picks")
  }

  test("SO-FW picks beat the same batch's MO-WS front on the raw weighted sum") {
    val prefs = Vector((0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0))
    val (mows, soFw) = Baselines.wsAndSoFw(qm, prefs, nSamples = 300, nWeights = 7, seed = 10)
    prefs.foreach { w =>
      def raw(s: Pareto.Sol[FineConfig]): Double = w._1 * s.f1 + w._2 * s.f2
      mows.front.foreach(s => assert(raw(soFw(w)) <= raw(s), s"at $w: ${soFw(w)} vs $s"))
    }
  }

  test("recommendation from a single-point front is that point") {
    val (_, so) = Baselines.wsAndSoFw(qm, Vector((0.5, 0.5)), nSamples = 100, seed = 11)
    val r = MooResult(Vector(so((0.5, 0.5))), 0.1)
    assert(r.recommend((0.0, 1.0)) == r.front.head)
  }

  test("MooResult refuses an empty front") {
    intercept[IllegalArgumentException](MooResult(Vector.empty, 0.1))
  }
}
