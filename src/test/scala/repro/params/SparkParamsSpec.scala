package repro.params

import org.scalatest.funsuite.AnyFunSuite
import repro.TestProp.forAllSeeds

/** The 19-parameter space of Tables 1/6: domains, clamping, unit mapping. */
class SparkParamsSpec extends AnyFunSuite {
  import SparkParams._

  private val allDefs = thetaCDefs ++ thetaPDefs ++ thetaSDefs

  test("the space has 19 parameters: 8 θc + 9 θp + 2 θs") {
    assert(dC == 8 && dP == 9 && dS == 2 && dAll == 19)
  }

  test("every parameter has a non-degenerate domain") {
    allDefs.foreach(d => assert(d.hi > d.lo, d.name))
  }

  test("parameter names are unique Spark conf keys") {
    assert(allDefs.map(_.name).distinct.size == allDefs.size)
  }

  allDefs.foreach { d =>
    test(s"${d.name}: clamp keeps values inside [${d.lo}, ${d.hi}]") {
      forAllSeeds() { rnd =>
        val v = rnd.nextGaussian() * 1e4
        val c = d.clamp(v)
        assert(c >= d.lo && c <= d.hi)
      }
    }
  }

  allDefs.foreach { d =>
    test(s"${d.name}: fromUnit(toUnit(v)) is stable on domain values") {
      val mid = d.clamp((d.lo + d.hi) / 2)
      assert(math.abs(d.fromUnit(d.toUnit(mid)) - mid) <= (if (d.integral) 0.5 else 1e-9))
    }
  }

  test("fromUnit(0) and fromUnit(1) hit the domain bounds") {
    allDefs.foreach { d =>
      assert(d.fromUnit(0.0) == d.clamp(d.lo))
      assert(d.fromUnit(1.0) == d.clamp(d.hi))
    }
  }

  test("integral parameters decode to whole numbers") {
    allDefs.filter(_.integral).foreach { d =>
      val v = d.fromUnit(0.377)
      assert(v == math.round(v).toDouble, d.name)
    }
  }

  test("default θc is inside its domain") {
    val v = ThetaC.default.toVector
    thetaCDefs.zip(v).foreach { case (d, x) => assert(d.clamp(x) == x, d.name) }
  }

  test("default θp is inside its domain") {
    val v = ThetaP.default.toVector
    thetaPDefs.zip(v).foreach { case (d, x) => assert(d.clamp(x) == x, d.name) }
  }

  test("default θs is inside its domain") {
    val v = ThetaS.default.toVector
    thetaSDefs.zip(v).foreach { case (d, x) => assert(d.clamp(x) == x, d.name) }
  }

  test("ThetaC derived quantities: total cores, memory, task memory") {
    val c = ThetaC.default
    assert(c.totalCores == c.execCores * c.execInstances)
    assert(c.totalMemGb == c.execMemoryGb * c.execInstances)
    assert(c.taskMemoryMb > 0)
  }

  // The affine unit map does not always invert bit for bit, so fractional
  // values of random copies may come back off in the last bits.
  private def assertRoundTrip(defs: Vector[ParamDef], back: Vector[Double], x: Vector[Double]): Unit =
    defs.indices.foreach { i =>
      assert(if (defs(i).integral) back(i) == x(i) else math.abs(back(i) - x(i)) <= 1e-12, defs(i).name)
    }

  test("ThetaC.fromUnit round-trips toUnit") {
    assert(ThetaC.fromUnit(ThetaC.default.toUnit) == ThetaC.default)
    forAllSeeds() { rnd =>
      val x = ThetaC.fromUnit(Vector.fill(dC)(rnd.nextDouble()))
      assertRoundTrip(thetaCDefs, ThetaC.fromUnit(x.toUnit).toVector, x.toVector)
    }
  }

  test("ThetaP.fromUnit round-trips toUnit") {
    assert(ThetaP.fromUnit(ThetaP.default.toUnit) == ThetaP.default)
    forAllSeeds() { rnd =>
      val x = ThetaP.fromUnit(Vector.fill(dP)(rnd.nextDouble()))
      assertRoundTrip(thetaPDefs, ThetaP.fromUnit(x.toUnit).toVector, x.toVector)
    }
  }

  test("ThetaS.fromUnit round-trips toUnit") {
    assert(ThetaS.fromUnit(ThetaS.default.toUnit) == ThetaS.default)
    forAllSeeds() { rnd =>
      val x = ThetaS.fromUnit(Vector.fill(dS)(rnd.nextDouble()))
      assertRoundTrip(thetaSDefs, ThetaS.fromUnit(x.toUnit).toVector, x.toVector)
    }
  }

  test("Configuration.fromUnit splits coordinates into the three blocks") {
    forAllSeeds() { rnd =>
      val u = Vector.fill(dAll)(rnd.nextDouble())
      val conf = Configuration.fromUnit(u)
      assert(conf.c == ThetaC.fromUnit(u.slice(0, dC)))
      assert(conf.p == ThetaP.fromUnit(u.slice(dC, dC + dP)))
      assert(conf.s == ThetaS.fromUnit(u.slice(dC + dP, dAll)))
    }
  }

  test("Configuration.fromUnit rejects wrong widths") {
    intercept[IllegalArgumentException](Configuration.fromUnit(Vector(0.5)))
    intercept[IllegalArgumentException](Configuration.fromUnit(Vector.fill(dAll + 1)(0.5)))
  }

  test("ThetaC/P/S.fromUnit reject too-short and too-long vectors") {
    Seq[ThetaBlock[_]](ThetaC, ThetaP, ThetaS).foreach { b =>
      intercept[IllegalArgumentException](b.fromUnit(Vector.fill(b.defs.size - 1)(0.5)))
      intercept[IllegalArgumentException](b.fromUnit(Vector.fill(b.defs.size + 1)(0.5)))
    }
  }

  test("fromUnit rejects NaN coordinates") {
    allDefs.foreach(d => intercept[IllegalArgumentException](d.fromUnit(Double.NaN)))
    intercept[IllegalArgumentException](Configuration.fromUnit(Vector.fill(dAll)(0.5).updated(dC, Double.NaN)))
  }
}
