package repro.params

import org.scalatest.funsuite.AnyFunSuite
import repro.TestProp.forAllSeeds

/** Samplers used for trace collection and candidate generation. */
class SamplingSpec extends AnyFunSuite {

  test("latinHypercube produces n points of the requested dimension in [0,1]") {
    val pts = Sampling.latinHypercube(100, 19, seed = 1)
    assert(pts.size == 100)
    assert(pts.forall(p => p.size == 19 && p.forall(x => x >= 0.0 && x <= 1.0)))
  }

  test("latinHypercube stratifies: every dimension hits each of n strata once") {
    val n = 64
    val pts = Sampling.latinHypercube(n, 5, seed = 2)
    (0 until 5).foreach { d =>
      val strata = pts.map(p => (p(d) * n).toInt.min(n - 1)).sorted
      assert(strata == (0 until n).toVector, s"dimension $d not stratified")
    }
  }

  test("latinHypercube is deterministic in the seed") {
    assert(Sampling.latinHypercube(32, 8, 7) == Sampling.latinHypercube(32, 8, 7))
    assert(Sampling.latinHypercube(32, 8, 7) != Sampling.latinHypercube(32, 8, 8))
  }

  test("latinHypercube rejects non-positive sizes") {
    intercept[IllegalArgumentException](Sampling.latinHypercube(0, 3, 1))
    intercept[IllegalArgumentException](Sampling.latinHypercube(3, 0, 1))
  }

  test("refine shrinks coordinates away from the boundaries") {
    forAllSeeds() { rnd =>
      val u = Vector.fill(10)(rnd.nextDouble())
      val r = Sampling.refine(u)
      assert(r.forall(x => x >= 0.08 - 1e-12 && x <= 0.92 + 1e-12))
    }
    assert(Sampling.refine(Vector(0.0)) == Vector(0.08))
    assert(math.abs(Sampling.refine(Vector(1.0)).head - 0.92) < 1e-12)
  }

  test("refine preserves ordering") {
    val r = Sampling.refine(Vector(0.1, 0.5, 0.9))
    assert(r == r.sorted)
  }

  test("weightPairs spans (0,1)..(1,0) evenly and sums to 1") {
    val ws = Sampling.weightPairs(11)
    assert(ws.size == 11)
    assert(ws.head == (0.0, 1.0) && ws.last == (1.0, 0.0))
    ws.foreach { case (a, b) => assert(math.abs(a + b - 1.0) < 1e-12) }
  }

  test("weightPairs requires at least two pairs") {
    intercept[IllegalArgumentException](Sampling.weightPairs(1))
  }
}
