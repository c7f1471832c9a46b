package repro.bench

import repro.SparkSpec
import repro.harness.{ExperimentContext, Table3Harness}

/** Bench reproducing Table 3 (model performance with graph+regressor).
  *
  * Prints the measured rows next to the paper's; EXPERIMENTS.md records the
  * comparison. Assertions pin the table's *shape*: accurate latency
  * prediction, IO at least as predictable as latency, high correlation,
  * and inference throughput in the tens-of-K/s range.
  */
class Table3Bench extends SparkSpec {

  Seq("tpch", "tpcds").foreach { bench =>
    test(s"Table 3 [$bench]: model performance") {
      val report = ExperimentContext.forBench(spark, bench).report
      println(Table3Harness.format(bench, report))

      Table3Harness.targets(report).foreach { case (target, t) =>
        assert(t.latency.wmape < 0.50, s"$bench/$target latency WMAPE ${t.latency.wmape}")
        // The compile-time subQ model is blind to skew by design (β=0,
        // §4.3), which caps its correlation on the skew-heavy TPC-DS mix.
        assert(t.latency.corr > 0.55, s"$bench/$target latency corr ${t.latency.corr}")
        assert(t.io.corr > 0.70, s"$bench/$target IO corr ${t.io.corr}")
        assert(t.xputKps > 10, s"$bench/$target throughput ${t.xputKps}K/s")
      }
      // Expt 2 shape: the runtime QS model predicts IO better than the
      // compile-time subQ model (true input sizes vs CBO estimates).
      assert(report.qs.io.wmape <= report.subQ.io.wmape + 0.05,
        s"QS IO ${report.qs.io.wmape} should beat subQ IO ${report.subQ.io.wmape}")
    }
  }
}
