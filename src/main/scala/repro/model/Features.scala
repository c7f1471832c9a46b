package repro.model

import repro.cluster.CostModel
import repro.params.{Configuration, SparkParams, ThetaP}
import repro.workload.{JoinAlgo, QueryGraph}

/** Feature layout shared by the three model targets (§4.3, Fig 6).
  *
  * A model input is `embedding ⊕ non-decision ⊕ decision ⊕ hints`:
  *   - the plan embedding comes from [[GraphEmbedder]];
  *   - non-decision variables are α (input characteristics: log bytes/rows),
  *     β (partition-size dispersion) and γ (parallel-stage contention);
  *   - decision variables are the tunable parameters, normalized to
  *     `[0,1]` via their domains ([[SparkParams]]); the runtime QS model
  *     drops `θp` because those choices are already frozen (§4.3);
  *   - rule hints ([[hints]]).
  *
  * [[PlanFeatures]] is the only code that builds these vectors, for the
  * trainer and the predictors alike, so train/serve skew is impossible by
  * construction.
  */
object Features {

  /** Width of the non-decision block. */
  val ndDim: Int = 7

  /** Width of the rule-hint block appended after θ. */
  val hintDim: Int = 8

  /** The non-decision block: α (input and output size), β, and γ (sibling
    * stage count and work).
    */
  private[model] def nonDecision(
      inMb: Double, inRows: Double, outMb: Double, outRows: Double,
      beta: Double, gammaSiblings: Double, gammaWorkSec: Double): Array[Double] = Array(
    math.log1p(math.max(0.0, inMb)) / 15.0,
    math.log1p(math.max(0.0, inRows)) / 25.0,
    math.log1p(math.max(0.0, outMb)) / 15.0,
    math.log1p(math.max(0.0, outRows)) / 25.0,
    beta / 5.0,
    gammaSiblings / 10.0,
    math.log1p(math.max(0.0, gammaWorkSec)) / 10.0)

  /** Rule hints appended after θ: physical-operator one-hot, spill risk,
    * log total cores, log per-task memory, log partition count, and whether
    * the stage writes a shuffle — all deterministic functions of the plan
    * statistics and `θ`, mirroring the physical-plan information the
    * paper's runtime models see (§4.3).
    */
  def hints(
      algoCode: Int,
      isScan: Boolean,
      writesShuffle: Boolean,
      inMb: Double,
      unit19: Array[Double]): Array[Double] =
    hints(algoCode, isScan, writesShuffle, inMb, Configuration.fromUnit(unit19.toIndexedSeq))

  private[model] def hints(
      algoCode: Int,
      isScan: Boolean,
      writesShuffle: Boolean,
      inMb: Double,
      conf: Configuration): Array[Double] = {
    val Configuration(c, p, s) = conf
    val partitions =
      if (isScan) CostModel.scanPartitions(inMb, p)
      else CostModel.shufflePartitions(inMb, p, s)
    val spillRisk = math.log1p(inMb / partitions / c.taskMemoryMb)
    val h = new Array[Double](hintDim)
    if (algoCode >= 1 && algoCode <= 3) h(algoCode - 1) = 1.0
    h(3) = spillRisk
    h(4) = math.log(math.max(1.0, c.totalCores.toDouble)) / 6.0
    h(5) = math.log(math.max(1.0, c.taskMemoryMb)) / 12.0
    h(6) = math.log(partitions.toDouble) / 8.0
    h(7) = if (writesShuffle) 1.0 else 0.0
    h
  }
}

/** The one builder of model inputs for one query graph, used by the
  * [[Trainer]] on every trace run and by [[QueryModels]] when serving.
  *
  * Embeddings and non-decision variables do not depend on `θ` (Fig 6), so
  * each subQ's are computed once here, in two statistics views: compile
  * time (CBO estimates, β = γ = 0) and runtime (true statistics). The
  * planning rules behind the hints are the simulator's own:
  * [[JoinAlgo.choose]], [[QueryGraph.probeBuild]] and
  * [[QueryGraph.writesShuffle]]. Every view decides shuffle writes from the
  * *estimated* build sizes.
  *
  * Each view takes the unit-normalized 19-dim configuration `unit19`.
  */
final class PlanFeatures(g: QueryGraph, embedder: GraphEmbedder) {
  import PlanFeatures.Input

  // Compile-time view: scans read their table (well estimated); other
  // stages read their children's estimated outputs.
  private val est: Array[Input] = Array.tabulate(g.numSubQs) { i =>
    val sub = g.subQs(i)
    val (rows, bytes) =
      if (sub.isScan) (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
      else {
        val kids = sub.children.map(g.subQs)
        (kids.map(_.estOutRows.toDouble).sum, kids.map(_.estOutBytes.toDouble).sum)
      }
    Input(embedder.embedSubQ(sub, rows, bytes), bytes / 1048576.0, buildMb(i, g.subQs(_).estOutBytes),
      Features.nonDecision(bytes / 1048576.0, rows, sub.estOutBytes / 1048576.0, sub.estOutRows.toDouble,
        0.0, _, _))
  }

  // Runtime view: true statistics, β from the partition skew.
  private val tru: Array[Input] = Array.tabulate(g.numSubQs) { i =>
    val sub = g.subQs(i)
    val (rows, bytes) = (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
    Input(embedder.embedSubQ(sub, rows, bytes), bytes / 1048576.0, buildMb(i, g.subQs(_).trueOutBytes),
      Features.nonDecision(bytes / 1048576.0, rows, sub.trueOutBytes / 1048576.0, sub.trueOutRows.toDouble,
        sub.skew - 1.0, _, _))
  }

  private def buildMb(i: Int, bytes: Int => Long): Double = {
    val sub = g.subQs(i)
    if (sub.isJoin) bytes(g.probeBuild(sub, bytes)._2) / 1048576.0 else 0.0
  }

  private def algo(i: Int, buildMb: Double, p: ThetaP): Option[JoinAlgo] =
    Option.when(g.subQs(i).isJoin)(JoinAlgo.choose(buildMb, p))

  private def writesShuffle(i: Int, p: ThetaP): Boolean =
    g.writesShuffle(i, pid => algo(pid, est(pid).buildMb, p))

  private def hints(i: Int, algoCode: Int, in: Input, conf: Configuration): Array[Double] =
    Features.hints(algoCode, g.subQs(i).isScan, writesShuffle(i, conf.p), in.inMb, conf)

  private def subQView(i: Int, in: Input, unit19: Array[Double]): Array[Double] = {
    val conf = Configuration.fromUnit(unit19.toIndexedSeq)
    Array.concat(in.subQPrefix, unit19, hints(i, JoinAlgo.code(algo(i, in.buildMb, conf.p)), in, conf))
  }

  /** SubQ model input at compile time: CBO estimates, β = γ = 0, the join
    * algorithm the rule picks from the estimated build side.
    */
  def subQ(i: Int, unit19: Array[Double]): Array[Double] = subQView(i, est(i), unit19)

  /** SubQ model input on true statistics (the runtime re-scoring of `θp`). */
  def subQTrue(i: Int, unit19: Array[Double]): Array[Double] = subQView(i, tru(i), unit19)

  /** QS model input: true statistics, contention `γ`, the stage's physical
    * join algorithm (AQE already planned it), and `θp` dropped.
    */
  def qs(i: Int, unit19: Array[Double], algoCode: Int, gammaSiblings: Double, gammaWork: Double): Array[Double] = {
    import SparkParams.{dC, dP, dAll}
    val conf = Configuration.fromUnit(unit19.toIndexedSeq)
    Array.concat(tru(i).prefix(gammaSiblings, gammaWork),
      unit19.slice(0, dC), unit19.slice(dC + dP, dAll), hints(i, algoCode, tru(i), conf))
  }

  /** LQP model input (Table 3 only): the whole plan on true statistics.
    * Mean-pooled embeddings normalize plan size away, so the subQ count
    * rides along after the hints.
    */
  def lqp(unit19: Array[Double]): Array[Double] = {
    val sinks = g.sinks
    val scanMb = g.totalScanBytes / 1048576.0
    Array.concat(
      embedder.embedGraph(g, s => (s.trueInputRows.toDouble, s.trueInputBytes.toDouble)),
      Features.nonDecision(scanMb, g.subQs.filter(_.isScan).map(_.trueInputRows.toDouble).sum,
        sinks.map(_.trueOutBytes.toDouble).sum / 1048576.0, sinks.map(_.trueOutRows.toDouble).sum,
        g.subQs.map(_.skew - 1.0).max, 0.0, 0.0),
      unit19,
      Features.hints(0, isScan = false, writesShuffle = false, scanMb, unit19),
      Array(g.numSubQs / 50.0))
  }
}

object PlanFeatures {

  /** One subQ's configuration-independent inputs under one statistics view;
    * `nonDecision` takes the contention `γ` (siblings, sibling work).
    */
  private final case class Input(
      embedding: Array[Double],
      inMb: Double,
      buildMb: Double,
      nonDecision: (Double, Double) => Array[Double]) {

    def prefix(gammaSiblings: Double, gammaWork: Double): Array[Double] =
      embedding ++ nonDecision(gammaSiblings, gammaWork)

    /** The subQ model's prefix (no contention), cached. */
    val subQPrefix: Array[Double] = prefix(0.0, 0.0)
  }
}
