package repro.moo

import repro.params.{Configuration, SparkParams, ThetaC, ThetaP, ThetaS}

/** A fine-grained configuration in unit coordinates: one shared `θc` copy
  * plus per-subQ copies of `θp` and `θs` (Def 3.3). Query-level tuners
  * produce the degenerate case where every subQ holds the same copy.
  */
final case class FineConfig(
    cU: Array[Double],
    pU: Vector[Array[Double]],
    sU: Vector[Array[Double]]) {
  require(cU.length == SparkParams.dC, "bad θc width")
  require(pU.size == sU.size, "θp/θs copy count mismatch")

  def m: Int = pU.size

  /** Full 19-dim unit vector seen by subQ `i`. */
  def unit19(i: Int): Array[Double] = cU ++ pU(i) ++ sU(i)

  def thetaC: ThetaC = ThetaC.fromUnit(cU)
  def thetaP(i: Int): ThetaP = ThetaP.fromUnit(pU(i))
  def thetaS(i: Int): ThetaS = ThetaS.fromUnit(sU(i))

  /** Collapse to a single-copy configuration using subQ 0's copies (only
    * valid for query-level solutions where all copies are identical).
    */
  def asQueryLevel: Configuration =
    Configuration(thetaC, thetaP(0), thetaS(0))
}

object FineConfig {
  /** Replicate one 19-dim unit configuration over `m` subQs. */
  def uniform(m: Int, unit19: Array[Double]): FineConfig = {
    require(unit19.length == SparkParams.dAll, "bad configuration width")
    val cU = unit19.slice(0, SparkParams.dC)
    val pU = unit19.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP)
    val sU = unit19.slice(SparkParams.dC + SparkParams.dP, SparkParams.dAll)
    FineConfig(cU, Vector.fill(m)(pU.clone()), Vector.fill(m)(sU.clone()))
  }
}

/** Result of one MOO solve: the Pareto front (payloads are fine-grained
  * configurations) and the wall-clock solving time.
  */
final case class MooResult(front: Vector[Pareto.Sol[FineConfig]], solveTimeSec: Double) {
  require(front.nonEmpty, "MOO produced an empty front")

  /** WUN-recommended configuration under preference weights `w`. */
  def recommend(w: (Double, Double)): Pareto.Sol[FineConfig] = Pareto.wun(front, w)
}
