package repro.integration

import repro.SparkSpec
import repro.harness.ExperimentContext
import repro.moo.Pareto

/** End-to-end pipeline on a small trained model: compile-time HMOOC,
  * runtime optimization, and execution on the simulator. Uses reduced
  * training sizes (set via system properties before the context is built).
  */
class EndToEndSpec extends SparkSpec {

  // Shrink the experiment so the suite stays fast; the bench suites run the
  // full-size version.
  sys.props("repro.trainruns_tpch") = "700"
  sys.props("repro.epochs") = "12"

  private lazy val ctx = ExperimentContext.forBench(spark, "tpch")

  test("models train to a usable accuracy even at reduced size") {
    val r = ctx.report
    assert(r.subQ.latency.corr > 0.6, s"subQ corr ${r.subQ.latency.corr}")
    assert(r.qs.latency.corr > 0.7, s"QS corr ${r.qs.latency.corr}")
    assert(r.subQ.latency.wmape < 1.0)
    assert(r.qs.xputKps > 1.0)
  }

  test("HMOOC3 solves every TPC-H query within the cloud time budget") {
    ctx.queries.take(6).foreach { q =>
      val r = q.hmooc
      assert(r.front.nonEmpty, q.g.name)
      assert(r.solveTimeSec < 5.0, s"${q.g.name} took ${r.solveTimeSec}s")
    }
  }

  test("the HMOOC front is non-dominated and spans a latency/cost tradeoff") {
    val r = ctx.queries(8).hmooc // Q9
    r.front.foreach(a => assert(!r.front.exists(b =>
      Pareto.dominates((b.f1, b.f2), (a.f1, a.f2)))))
    if (r.front.size > 1) {
      assert(r.front.map(_.f1).distinct.size > 1)
      assert(r.front.map(_.f2).distinct.size > 1)
    }
  }

  test("tuning beats the default configuration on the heavy queries") {
    // Aggregate over the heavy half to absorb single-query model noise.
    val heavy = ctx.queries.filter(_.defaultExec.wallSec > 40)
    assert(heavy.nonEmpty)
    val defSum = heavy.map(_.defaultExec.wallSec).sum
    val tunedSum = heavy.map { q =>
      q.deploy(q.hmooc.recommend((0.9, 0.1)).payload, runtimePref = None)._1.wallSec
    }.sum
    assert(tunedSum < defSum * 0.7, s"tuned $tunedSum vs default $defSum")
  }

  test("runtime optimization issues pruned request counts") {
    val q = ctx.queries(8)
    val (exec, _) = q.deploy(q.hmooc.recommend((0.9, 0.1)).payload, runtimePref = Some((0.9, 0.1)))
    assert(exec.lqpRequestsSent > 0 && exec.qsRequestsSent > 0)
    val naive = exec.lqpRequestsNaive + exec.qsRequestsNaive
    val sent = exec.lqpRequestsSent + exec.qsRequestsSent
    assert(sent < naive, s"pruning sent $sent of $naive")
  }

  test("the recommended front adapts predicted objectives to the weights") {
    val r = ctx.queries(4).hmooc // Q5
    val fast = r.recommend((1.0, 0.0))
    val cheap = r.recommend((0.0, 1.0))
    assert(fast.f1 <= cheap.f1 && cheap.f2 <= fast.f2)
  }

  test("hybrid deployment is deterministic given the same seed") {
    val q = ctx.queries(2)
    val fc = q.hmooc.recommend((0.9, 0.1)).payload
    val a = q.deploy(fc, runtimePref = Some((0.9, 0.1)))._1.wallSec
    val b = q.deploy(fc, runtimePref = Some((0.9, 0.1)))._1.wallSec
    assert(a == b)
  }

  test("MO-WS query-level solving is slower than HMOOC3 (R2 shape)") {
    val q = ctx.queries(8)
    assert(q.mows.solveTimeSec > q.hmooc.solveTimeSec)
  }
}
