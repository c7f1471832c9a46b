package repro.harness

import org.apache.spark.sql.SparkSession

/** Table 5 — latency and cost adapting to preferences: SO-FW (raw
  * fixed-weight single objective) vs HMOOC3+ across five preference
  * vectors, reported as average change vs the default configuration
  * (negative = reduction, the paper's sign convention).
  */
object Table5Harness {

  final case class Cell(latChange: Double, costChange: Double)

  final case class Row(pref: (Double, Double), soFw: Cell, h3p: Cell)

  final case class Result(bench: String, rows: Vector[Row])

  def run(spark: SparkSession, bench: String): Result = {
    val ctx = ExperimentContext.forBench(spark, bench)

    val rows = Calibration.table5Prefs.map { pref =>
      var sLat = 0.0; var sCost = 0.0; var hLat = 0.0; var hCost = 0.0
      ctx.queries.foreach { g =>
        val seed = ctx.noiseSeed(g)
        val defExec = ctx.defaultExec(g)

        val soExec = ctx.sim.runStatic(g, ctx.soFw(g)(pref).payload.asQueryLevel, seed)
        sLat += soExec.wallSec / defExec.wallSec - 1.0
        sCost += soExec.costUsd / defExec.costUsd - 1.0

        val fc = ctx.hmooc(g).recommend(pref).payload
        val (hExec, _) = Tuners.runHybrid(ctx.sim, g, ctx.qm(g), fc, pref, seed)
        hLat += hExec.wallSec / defExec.wallSec - 1.0
        hCost += hExec.costUsd / defExec.costUsd - 1.0
      }
      val n = ctx.queries.size.toDouble
      Row(pref, Cell(sLat / n, sCost / n), Cell(hLat / n, hCost / n))
    }
    Result(bench, rows)
  }

  def format(r: Result): String = {
    def pct(x: Double) = f"${x * 100}%5.0f%%"
    val lines = r.rows.map { row =>
      f"(${row.pref._1}%3.1f, ${row.pref._2}%3.1f)   ${pct(row.soFw.latChange)} / ${pct(row.soFw.costChange)}    ${pct(row.h3p.latChange)} / ${pct(row.h3p.costChange)}"
    }
    (f"Table 5 [${r.bench}]  SO-FW (lat/cost)   HMOOC3+ (lat/cost)" +: lines).mkString("\n")
  }
}
