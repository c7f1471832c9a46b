package repro.workload

import repro.SparkSpec
import repro.cluster.Simulator
import repro.params.{Configuration, Sampling, SparkParams}

/** The trace contract the trainer relies on: run `idx` is a fixed
  * (template, variant, LHS configuration) triple and carries the simulator's
  * own record of that run.
  */
class TraceGenSpec extends SparkSpec {

  test("trace run idx is the simulator's record of its template, variant and LHS configuration") {
    val runs = TraceGen.traces(spark, "tpch", 44, seed = 3).collect()
    val lhs = Sampling.latinHypercube(44, SparkParams.dAll, 3)
    assert(runs.length == 44)
    runs.zipWithIndex.foreach { case (t, idx) =>
      assert(t.template == idx % 22 && t.variant == 1L + idx / 22, s"run $idx")
      assert(t.conf == lhs(idx), s"run $idx")
      val g = TraceGen.graphOf("tpch", t.template, t.variant)
      assert(t.exec == new Simulator().runStatic(g, Configuration.fromUnit(t.conf), noiseSeed = 3L + idx),
        s"run $idx")
    }
  }
}
