package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.cluster.{CostModel, QueryExec, RuntimeHooks}
import repro.moo.{FineConfig, MooResult, Pareto}
import repro.params.{SparkParams, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, QueryGraph, SubQ}

/** Checks on the optimizer's outputs. Every checked operation counts as
  * attempted; one with any failed check counts as failed and is reported,
  * never dropped.
  */
final class Checks {
  var attempted = 0L
  val failures = ArrayBuffer.empty[String]

  private def check(what: String)(problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) failures += s"$what: ${problems.mkString("; ")}"
  }

  /** An operation that threw instead of returning an output. */
  def threw(what: String, e: Throwable): Unit = check(what)(Seq(s"threw $e"))

  private def finite(x: Double): Boolean = !x.isNaN && !x.isInfinite

  /** A front is non-empty, finite and pairwise non-dominated. */
  def front(what: String, r: MooResult): Unit = check(what) {
    val f = r.front
    val pts = f.map(s => (s.f1, s.f2))
    Seq(
      Option.when(f.isEmpty)("empty front"),
      Option.when(pts.exists { case (a, b) => !finite(a) || !finite(b) })("non-finite objective"),
      Option.when(pts.exists(a => pts.exists(b => Pareto.dominates(b, a))))("dominated point on front")
    ).flatten
  }

  /** The WUN pick is one of the front's points. */
  def pick(what: String, r: MooResult, p: Pareto.Sol[FineConfig]): Unit = check(what) {
    Option.when(!r.front.exists(s => s.f1 == p.f1 && s.f2 == p.f2 && (s.payload eq p.payload)))(
      "WUN pick is not on the front").toSeq
  }

  /** A deployment has finite positive wall time and cost, one stage per
    * subQ, and never sends more runtime requests than the naive count.
    */
  def deployment(what: String, g: QueryGraph, e: QueryExec): Unit = check(what) {
    Seq(
      Option.when(!(finite(e.wallSec) && e.wallSec > 0))(s"wall time ${e.wallSec}"),
      Option.when(!(finite(e.costUsd) && e.costUsd > 0))(s"cost ${e.costUsd}"),
      Option.when(e.stages.map(_.subQId).sorted != g.subQs.indices)(
        s"${e.stages.size} stages for ${g.numSubQs} subQs"),
      Option.when(e.lqpRequestsSent > e.lqpRequestsNaive)(
        s"LQP requests sent ${e.lqpRequestsSent} > naive ${e.lqpRequestsNaive}"),
      Option.when(e.qsRequestsSent > e.qsRequestsNaive)(
        s"QS requests sent ${e.qsRequestsSent} > naive ${e.qsRequestsNaive}")
    ).flatten
  }

  private def outOfBounds(defs: Vector[SparkParams.ParamDef], values: Vector[Double]): Seq[String] =
    defs.zip(values).collect { case (d, v) if !(finite(v) && d.clamp(v) == v) => s"${d.name}=$v" }

  def thetaP(what: String, p: ThetaP): Unit = check(what)(outOfBounds(SparkParams.thetaPDefs, p.toVector))
  def thetaS(what: String, s: ThetaS): Unit = check(what)(outOfBounds(SparkParams.thetaSDefs, s.toVector))
}

/** Per-call hook timing: a [[RuntimeHooks]] that delegates to the runtime
  * optimizer, checks every returned copy, and records each call's latency.
  */
final class TimedHooks(inner: RuntimeHooks, tr: Tracer, checks: Checks, log: HookLog) extends RuntimeHooks {
  var ns = 0L

  override def onCollapsedPlan(
      g: QueryGraph,
      readyJoins: Vector[SubQ],
      trueOut: Map[Int, CostModel.SideStats],
      current: ThetaP): ThetaP = {
    val t0 = System.nanoTime()
    val p = tr.span("runtime.lqp_hook")(inner.onCollapsedPlan(g, readyJoins, trueOut, current))
    val d = System.nanoTime() - t0
    ns += d
    log.lqp(d, p != current)
    checks.thetaP("LQP hook", p)
    p
  }

  override def onQueryStage(sub: SubQ, inputMb: Double, algo: Option[JoinAlgo], current: ThetaS): ThetaS = {
    val t0 = System.nanoTime()
    val s = tr.span("runtime.qs_hook")(inner.onQueryStage(sub, inputMb, algo, current))
    val d = System.nanoTime() - t0
    ns += d
    log.qs(d, s != current)
    checks.thetaS("QS hook", s)
    s
  }
}

/** Hook latencies and decisions of one run. */
final class HookLog {
  val lqpNs = ArrayBuffer.empty[Long]
  val qsNs = ArrayBuffer.empty[Long]
  var changed = 0L

  def lqp(ns: Long, ch: Boolean): Unit = { lqpNs += ns; if (ch) changed += 1 }
  def qs(ns: Long, ch: Boolean): Unit = { qsNs += ns; if (ch) changed += 1 }
  def reset(): Unit = { lqpNs.clear(); qsNs.clear(); changed = 0 }
  def calls: Int = lqpNs.size + qsNs.size
  def allUs: Seq[Double] = (lqpNs ++ qsNs).map(_ / 1e3).toSeq
}
