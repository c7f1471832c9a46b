package repro.runtime

import repro.moo.FineConfig
import repro.params.{ThetaP, ThetaS}
import repro.workload.QueryGraph

/** Aggregates fine-grained compile-time `{θp}` / `{θs}` copies into the
  * single copies Spark accepts at query submission (§5.2 and §C.2.1).
  *
  * Join-algorithm thresholds (`s3`, `s4`) take the *minimum* across
  * join-based subQs — AQE can only convert SMJ→{SHJ,BHJ}, so a conservative
  * submission-time threshold avoids irreversible broadcasts of misestimated
  * build sides — and are lower-capped at the Spark defaults (10 MB / 0 MB)
  * so genuinely small scan-based sides still get broadcast. All other
  * parameters, and the whole `θs` copy, are copied from the dominant subQ:
  * the one the CBO believes reads the most input bytes. Submission happens
  * at compile time, so the pick reads [[QueryGraph.estimated]] only.
  */
object ThetaAggregator {

  /** SubQ carrying the most estimated input bytes — its copies dominate
    * aggregation (blending disparate per-subQ values would produce a copy
    * optimal for no stage at all).
    */
  private def dominantIdx(g: QueryGraph): Int =
    g.estimated.subQs.maxBy(_.trueInputBytes).id

  /** The single submission-time `θp` copy. */
  def aggregateP(g: QueryGraph, fc: FineConfig): ThetaP = {
    require(fc.m == g.numSubQs, "configuration does not match query")
    val joinCopies = g.subQs.indices.filter(i => g.subQs(i).isJoin).map(fc.thetaP)
    val dom = fc.thetaP(dominantIdx(g))

    val bcast = if (joinCopies.isEmpty) ThetaP.default.broadcastThresholdMb
                else math.max(ThetaP.default.broadcastThresholdMb, joinCopies.map(_.broadcastThresholdMb).min)
    val shj   = if (joinCopies.isEmpty) ThetaP.default.shuffledHashThresholdMb
                else math.max(ThetaP.default.shuffledHashThresholdMb, joinCopies.map(_.shuffledHashThresholdMb).min)

    dom.copy(shuffledHashThresholdMb = shj, broadcastThresholdMb = bcast)
  }

  /** The single submission-time `θs` copy (the dominant subQ's). */
  def aggregateS(g: QueryGraph, fc: FineConfig): ThetaS = {
    require(fc.m == g.numSubQs, "configuration does not match query")
    fc.thetaS(dominantIdx(g))
  }
}
