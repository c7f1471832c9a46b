package repro.model

import repro.cluster.CostModel
import repro.params.{Configuration, SparkParams}
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
  * Each non-decision input has one rule per model view: the subQ view sees
  * the graph's α with β = γ = 0 on every graph; the QS view sees the
  * graph's α and β and the γ of [[QueryGraph.contention]].
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
    * stage count and their input MB, on α's input-MB scale).
    */
  private[model] def nonDecision(
      inMb: Double, inRows: Double, outMb: Double, outRows: Double,
      beta: Double, gammaSiblings: Double, gammaMb: Double): Array[Double] = Array(
    math.log1p(math.max(0.0, inMb)) / 15.0,
    math.log1p(math.max(0.0, inRows)) / 25.0,
    math.log1p(math.max(0.0, outMb)) / 15.0,
    math.log1p(math.max(0.0, outRows)) / 25.0,
    beta / 5.0,
    gammaSiblings / 10.0,
    math.log1p(math.max(0.0, gammaMb)) / 15.0)

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
    hints(algoCode, isScan, writesShuffle, inMb, Configuration.fromUnit(unit19))

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
  * It has one statistics view: the graph it is given. Compile time is a
  * `PlanFeatures` over [[QueryGraph.estimated]] (CBO estimates); runtime is
  * one over the real graph. The subQ view is β- and γ-blind on both, as its
  * training rows (the estimated graph) are. Embeddings and non-decision
  * variables do not depend on `θ` (Fig 6), so each subQ's are computed
  * once here. The planning rules behind the hints are the simulator's own:
  * [[JoinAlgo.choose]] on [[QueryGraph.buildMb]], and
  * [[QueryGraph.writesShuffle]] over the joins compile time plans
  * ([[QueryGraph.plannedAlgo]]).
  *
  * Each input takes the unit-normalized 19-dim configuration `unit19`.
  */
final class PlanFeatures(g: QueryGraph, embedder: GraphEmbedder) {

  private val inMb: Array[Double] = g.subQs.map(_.trueInputBytes / 1048576.0).toArray

  private val embedding: Array[Array[Double]] =
    g.subQs.map(s => embedder.embedSubQ(s, s.trueInputRows.toDouble, s.trueInputBytes.toDouble)).toArray

  /** SubQ `i`'s embedding ⊕ non-decision block under `β` and `γ`. */
  private def prefix(i: Int, beta: Double, gammaSiblings: Double, gammaMb: Double): Array[Double] = {
    val s = g.subQs(i)
    embedding(i) ++ Features.nonDecision(inMb(i), s.trueInputRows.toDouble, s.trueOutBytes / 1048576.0,
      s.trueOutRows.toDouble, beta, gammaSiblings, gammaMb)
  }

  // The subQ model's prefix: β = γ = 0.
  private val subQPrefix: Array[Array[Double]] = Array.tabulate(g.numSubQs)(prefix(_, 0.0, 0.0, 0.0))

  private def hints(i: Int, algoCode: Int, conf: Configuration): Array[Double] =
    Features.hints(algoCode, g.subQs(i).isScan, g.writesShuffle(i, g.plannedAlgo(_, conf.p)), inMb(i), conf)

  /** SubQ model input: the graph's α with β = γ = 0, and the join
    * algorithm the rule picks from the graph's build side.
    */
  def subQ(i: Int, unit19: Array[Double]): Array[Double] = {
    val conf = Configuration.fromUnit(unit19)
    val algo = Option.when(g.subQs(i).isJoin)(JoinAlgo.choose(g.buildMb(i), conf.p))
    Array.concat(subQPrefix(i), unit19, hints(i, JoinAlgo.code(algo), conf))
  }

  /** QS model input: the graph's α and β (`skew − 1`), contention `γ`
    * (callers pass [[QueryGraph.contention]]), the stage's physical join
    * algorithm (AQE already planned it), and `θp` dropped.
    */
  def qs(i: Int, unit19: Array[Double], algoCode: Int, gammaSiblings: Double, gammaMb: Double): Array[Double] = {
    import SparkParams.{dC, dP, dAll}
    Array.concat(prefix(i, g.subQs(i).skew - 1.0, gammaSiblings, gammaMb),
      unit19.slice(0, dC), unit19.slice(dC + dP, dAll), hints(i, algoCode, Configuration.fromUnit(unit19)))
  }

  /** LQP model input (Table 3 only): the whole plan. Mean-pooled embeddings
    * normalize plan size away, so the subQ count rides along after the
    * hints.
    */
  def lqp(unit19: Array[Double]): Array[Double] = {
    val sinks = g.sinks
    val scanMb = g.totalScanBytes / 1048576.0
    Array.concat(
      embedder.embedGraph(g),
      Features.nonDecision(scanMb, g.subQs.filter(_.isScan).map(_.trueInputRows.toDouble).sum,
        sinks.map(_.trueOutBytes.toDouble).sum / 1048576.0, sinks.map(_.trueOutRows.toDouble).sum,
        g.subQs.map(_.skew - 1.0).max, 0.0, 0.0),
      unit19,
      Features.hints(0, isScan = false, writesShuffle = false, scanMb, unit19),
      Array(g.numSubQs / 50.0))
  }
}
