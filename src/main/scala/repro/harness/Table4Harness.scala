package repro.harness

import org.apache.spark.sql.SparkSession

/** Table 4 — latency reduction with a strong speed preference (0.9, 0.1):
  * MO-WS (query-level weighted sum) vs HMOOC3 (fine-grained compile time)
  * vs HMOOC3+ (plus runtime optimization), all deployed and executed,
  * reported as improvement over the default Spark configuration.
  */
object Table4Harness {

  /** One method's column of Table 4. */
  final case class MethodStats(
      coverage1s: Double,
      coverage2s: Double,
      totalLatReduction: Double,
      avgLatReduction: Double,
      avgSolveSec: Double,
      maxSolveSec: Double) {
    /** Latency reduction per unit solving time (the paper's efficiency row). */
    def efficiency: Double = avgLatReduction / math.max(1e-9, avgSolveSec)
  }

  final case class PerQuery(
      name: String,
      defWall: Double,
      mowsWall: Double, mowsSolve: Double,
      h3Wall: Double, h3Solve: Double,
      h3pWall: Double, h3pSolve: Double)

  final case class Result(bench: String, perQuery: Vector[PerQuery]) {
    private def stats(wall: PerQuery => Double, solve: PerQuery => Double): MethodStats = {
      val n = perQuery.size.toDouble
      MethodStats(
        coverage1s = perQuery.count(q => solve(q) < 1.0) / n,
        coverage2s = perQuery.count(q => solve(q) < 2.0) / n,
        totalLatReduction = 1.0 - perQuery.map(wall).sum / perQuery.map(_.defWall).sum,
        avgLatReduction = perQuery.map(q => 1.0 - wall(q) / q.defWall).sum / n,
        avgSolveSec = perQuery.map(solve).sum / n,
        maxSolveSec = perQuery.map(solve).max)
    }
    def mows: MethodStats = stats(_.mowsWall, _.mowsSolve)
    def h3: MethodStats   = stats(_.h3Wall, _.h3Solve)
    def h3p: MethodStats  = stats(_.h3pWall, _.h3pSolve)
  }

  def run(spark: SparkSession, bench: String): Result = {
    val ctx  = ExperimentContext.forBench(spark, bench)
    val pref = Calibration.speedPref

    val perQuery = ctx.queries.map { g =>
      val seed = ctx.noiseSeed(g)
      val defExec = ctx.defaultExec(g)

      val mows = ctx.mows(g)
      val mowsExec = ctx.sim.runStatic(g, mows.recommend(pref).payload.asQueryLevel, seed)

      val hm = ctx.hmooc(g)
      val fc = hm.recommend(pref).payload
      val h3Exec = Tuners.runCompileTime(ctx.sim, g, fc, seed)
      val (h3pExec, opt) = Tuners.runHybrid(ctx.sim, g, ctx.qm(g), fc, pref, seed)

      PerQuery(
        g.name, defExec.wallSec,
        mowsExec.wallSec, mows.solveTimeSec,
        h3Exec.wallSec, hm.solveTimeSec,
        h3pExec.wallSec, hm.solveTimeSec + opt.optTimeSec)
    }
    Result(bench, perQuery)
  }

  def format(r: Result): String = {
    def pct(x: Double) = f"${x * 100}%6.0f%%"
    def sec(x: Double) = f"$x%6.2f"
    val m = r.mows; val a = r.h3; val b = r.h3p
    Vector(
      f"Table 4 [${r.bench}]            MO-WS   HMOOC3  HMOOC3+",
      f"Coverage (1s)          ${pct(m.coverage1s)} ${pct(a.coverage1s)} ${pct(b.coverage1s)}",
      f"Coverage (2s)          ${pct(m.coverage2s)} ${pct(a.coverage2s)} ${pct(b.coverage2s)}",
      f"Total Lat Reduction    ${pct(m.totalLatReduction)} ${pct(a.totalLatReduction)} ${pct(b.totalLatReduction)}",
      f"Avg Lat Reduction      ${pct(m.avgLatReduction)} ${pct(a.avgLatReduction)} ${pct(b.avgLatReduction)}",
      f"Avg Solving Time (s)   ${sec(m.avgSolveSec)} ${sec(a.avgSolveSec)} ${sec(b.avgSolveSec)}",
      f"Max Solving Time (s)   ${sec(m.maxSolveSec)} ${sec(a.maxSolveSec)} ${sec(b.maxSolveSec)}",
      f"AvgLatRed/SolvingTime  ${pct(m.efficiency)} ${pct(a.efficiency)} ${pct(b.efficiency)}"
    ).mkString("\n")
  }
}
