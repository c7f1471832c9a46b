package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.model.Metrics
import repro.model.Trainer.{ModelReport, TargetMetrics}

/** Pure logic of the table harnesses (statistics and formatting). */
class HarnessSpec extends AnyFunSuite {
  import Table4Harness._

  private val perQuery = Vector(
    PerQuery("q1", defWall = 100, mowsWall = 80, mowsSolve = 3.0,
      h3Wall = 50, h3Solve = 0.5, h3pWall = 40, h3pSolve = 0.6),
    PerQuery("q2", defWall = 10, mowsWall = 12, mowsSolve = 1.5,
      h3Wall = 8, h3Solve = 0.4, h3pWall = 7, h3pSolve = 0.5))
  private val r = Result("tpch", perQuery)

  test("coverage counts queries under the solving-time thresholds") {
    assert(r.mows.coverage1s == 0.0)
    assert(r.mows.coverage2s == 0.5)
    assert(r.h3.coverage1s == 1.0)
  }

  test("total latency reduction uses summed latencies") {
    assert(math.abs(r.h3.totalLatReduction - (1.0 - 58.0 / 110.0)) < 1e-12)
  }

  test("average latency reduction averages per-query ratios") {
    val expected = ((1 - 50.0 / 100) + (1 - 8.0 / 10.0)) / 2
    assert(math.abs(r.h3.avgLatReduction - expected) < 1e-12)
  }

  test("a method can have negative average reduction (regressions)") {
    // MO-WS regresses on q2: 12 > 10.
    val expected = ((1 - 80.0 / 100) + (1 - 12.0 / 10.0)) / 2
    assert(math.abs(r.mows.avgLatReduction - expected) < 1e-12)
  }

  test("solving-time stats") {
    assert(r.mows.avgSolveSec == 2.25 && r.mows.maxSolveSec == 3.0)
    assert(r.h3p.maxSolveSec == 0.6)
  }

  test("efficiency divides reduction by solving time") {
    assert(math.abs(r.h3.efficiency - r.h3.avgLatReduction / r.h3.avgSolveSec) < 1e-12)
  }

  test("Table 4 formatting renders all rows") {
    val out = Table4Harness.format(r)
    assert(out.contains("Coverage (1s)"))
    assert(out.contains("Avg Solving Time"))
    assert(out.linesIterator.size == 8)
  }

  test("Table 5 formatting renders one line per preference") {
    val t5 = Table5Harness.Result("tpch", Vector(
      Table5Harness.Row((0.9, 0.1), Table5Harness.Cell(-0.1, 0.2), Table5Harness.Cell(-0.5, 0.1))))
    val out = Table5Harness.format(t5)
    assert(out.contains("(0.9, 0.1)"))
    assert(out.linesIterator.size == 2)
  }

  test("Table 3 formatting renders three targets") {
    val t = TargetMetrics(Metrics.Report(0.1, 0.05, 0.3, 0.95), Metrics.Report(0.02, 0.01, 0.05, 0.99), 120)
    val out = Table3Harness.format("tpch", ModelReport(t, t, t))
    assert(out.contains("subQ") && out.contains("QS") && out.contains("LQP"))
    assert(out.linesIterator.size == 5)
    assert(out.linesIterator.toVector(2) ==
      "tpch    subQ  |   0.100   0.050   0.300  0.95 |   0.020   0.010   0.050  0.99 |      120")
  }

  test("calibration knobs read system-property overrides") {
    def overridden[A](key: String, value: String)(read: => A): A = {
      val old = sys.props.get(key)
      sys.props(key) = value
      try read finally old match {
        case Some(v) => sys.props(key) = v
        case None    => sys.props -= key
      }
    }
    val runs = Calibration.trainRuns("tpcds")
    assert(overridden("repro.trainruns_tpcds", "123")(Calibration.trainRuns("tpcds")) == 123)
    assert(Calibration.trainRuns("tpcds") == runs)
    assert(overridden("repro.epochs", "77")(Calibration.epochs) == 77)
  }

  test("TableJob rejects an unknown benchmark or table before Spark starts") {
    assert(repro.jobs.TableJob.parse(Array("4")) == ("4", Seq("tpch", "tpcds")))
    val e = intercept[IllegalArgumentException](repro.jobs.TableJob.parse(Array("4", "tpcx")))
    assert(e.getMessage.contains("unknown benchmark tpcx"))
    intercept[IllegalArgumentException](repro.jobs.TableJob.parse(Array("6", "tpch")))
  }

  test("Table 5 preference grid matches the paper's five vectors") {
    assert(Calibration.table5Prefs ==
      Vector((0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0)))
    assert(Calibration.speedPref == (0.9, 0.1))
  }
}
