package repro.harness

import repro.model.Trainer.{ModelReport, TargetMetrics}

/** Table 3 — model performance with the graph-embedder + regressor: WMAPE,
  * P50, P90, Pearson correlation for latency and IO, plus inference
  * throughput, for the subQ / QS / LQP targets of each benchmark.
  */
object Table3Harness {

  /** The report's three targets in table order, with their row labels. */
  def targets(r: ModelReport): Vector[(String, TargetMetrics)] =
    Vector("subQ" -> r.subQ, "QS" -> r.qs, "LQP" -> r.lqp)

  def format(bench: String, r: ModelReport): String = {
    val header = f"${"bench"}%-7s ${"target"}%-5s | ${"WMAPE"}%7s ${"P50"}%7s ${"P90"}%7s ${"Corr"}%5s | ${"WMAPE"}%7s ${"P50"}%7s ${"P90"}%7s ${"Corr"}%5s | ${"Xput K/s"}%8s"
    val lines = targets(r).map { case (target, t) =>
      val (l, io) = (t.latency, t.io)
      f"$bench%-7s $target%-5s | ${l.wmape}%7.3f ${l.p50}%7.3f ${l.p90}%7.3f ${l.corr}%5.2f | " +
        f"${io.wmape}%7.3f ${io.p50}%7.3f ${io.p90}%7.3f ${io.corr}%5.2f | ${t.xputKps}%8.0f"
    }
    (("          (latency)                        (IO)" +: header +: lines): Vector[String]).mkString("\n")
  }
}
