package repro.moo

import repro.model.QueryModels
import repro.params.{Sampling, SparkParams, ThetaC}
import repro.moo.Pareto.Sol

/** The query-level tuning methods the paper compares HMOOC against
  * (§6.2–6.3), both picked from one evaluated batch of LHS samples:
  *
  *   - MO-WS — Weighted Sum [29] (Table 4): the arg-min of each evenly
  *     spaced weight pair over the *raw* objectives, Pareto-filtered.
  *   - SO-FW — single objective with fixed weights [21, 59, 66] (Table 5):
  *     the raw weighted-sum arg-min for one preference vector — the
  *     theoretically unsound shortcut the paper argues against (§3.3.2).
  *
  * Because raw latency (seconds) and cost (dollars) live on very different
  * scales, most weight vectors collapse onto the same few points (Fig 4).
  */
object Baselines {

  /** Draw `nSamples` refined LHS configurations, evaluate their query-level
    * objectives once, and return the MO-WS result (solve time = evaluation
    * + arg-mins + skyline) together with the SO-FW pick per preference in
    * `prefs`. Each arg-min keeps the first sample among ties.
    */
  def wsAndSoFw(
      qm: QueryModels,
      prefs: Vector[(Double, Double)],
      nSamples: Int = 10000,
      nWeights: Int = 11,
      seed: Long = 23L): (MooResult, Map[(Double, Double), Sol[FineConfig]]) = {
    val t0 = System.nanoTime()
    val samples = Sampling.latinHypercube(nSamples, SparkParams.dAll, seed)
      .map(u => Sampling.refine(u).toArray)
    val objs = samples.map(u => qm.queryObjectives(u, ThetaC.fromUnit(u.slice(0, SparkParams.dC))))

    def argmin(w: (Double, Double)): Sol[FineConfig] = {
      val idx = objs.indices.minBy(i => w._1 * objs(i)._1 + w._2 * objs(i)._2)
      Sol(objs(idx)._1, objs(idx)._2, FineConfig.uniform(qm.m, samples(idx)))
    }

    val ws = Sampling.weightPairs(nWeights).map(argmin).distinctBy(s => (s.f1, s.f2))
    val mows = MooResult(Pareto.skyline(ws), (System.nanoTime() - t0) / 1e9)
    (mows, prefs.map(w => w -> argmin(w)).toMap)
  }
}
