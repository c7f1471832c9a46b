package repro.model

import repro.params.SparkParams
import repro.workload.JoinAlgo

/** Feature assembly shared by the three model targets (§4.3).
  *
  * A model input is `embedding ⊕ non-decision ⊕ decision`:
  *   - the plan embedding comes from [[GraphEmbedder]];
  *   - non-decision variables are α (input characteristics: log bytes/rows),
  *     β (partition-size dispersion) and γ (parallel-stage contention);
  *   - decision variables are the tunable parameters, normalized to
  *     `[0,1]` via their domains ([[SparkParams]]); the runtime QS model
  *     drops `θp` because those choices are already frozen (§4.3).
  */
object Features {

  /** Non-decision variables for one sample. Compile-time subQ models use
    * `α = α_cbo`, `β = 0`, `γ = 0` (§4.3); runtime models use true values.
    */
  final case class NonDecision(
      inputMb: Double,
      inputRows: Double,
      outMb: Double,
      outRows: Double,
      beta: Double,
      gammaSiblings: Double,
      gammaWorkSec: Double) {

    def toArray: Array[Double] = Array(
      math.log1p(math.max(0.0, inputMb)) / 15.0,
      math.log1p(math.max(0.0, inputRows)) / 25.0,
      math.log1p(math.max(0.0, outMb)) / 15.0,
      math.log1p(math.max(0.0, outRows)) / 25.0,
      beta / 5.0,
      gammaSiblings / 10.0,
      math.log1p(math.max(0.0, gammaWorkSec)) / 10.0)
  }

  val ndDim: Int = 7

  /** Normalize a typed 19-value configuration vector to unit coordinates. */
  def unitAll(raw: IndexedSeq[Double]): Array[Double] = {
    require(raw.size == SparkParams.dAll, s"expected ${SparkParams.dAll} values")
    val defs = SparkParams.thetaCDefs ++ SparkParams.thetaPDefs ++ SparkParams.thetaSDefs
    defs.zip(raw).map { case (d, v) => d.toUnit(v) }.toArray
  }

  /** Build the model input vector. `theta` is already unit-normalized; the
    * QS model passes the 10-dim `θc ⊕ θs` slice, the others all 19 dims.
    */
  def assemble(embedding: Array[Double], nd: NonDecision, theta: Array[Double]): Array[Double] = {
    val out = new Array[Double](embedding.length + ndDim + theta.length)
    System.arraycopy(embedding, 0, out, 0, embedding.length)
    val ndArr = nd.toArray
    System.arraycopy(ndArr, 0, out, embedding.length, ndDim)
    System.arraycopy(theta, 0, out, embedding.length + ndDim, theta.length)
    out
  }

  /** Drop the `θp` block from a 19-dim unit vector (for the QS model). */
  def dropThetaP(unit19: Array[Double]): Array[Double] = {
    val out = new Array[Double](SparkParams.dC + SparkParams.dS)
    System.arraycopy(unit19, 0, out, 0, SparkParams.dC)
    System.arraycopy(unit19, SparkParams.dC + SparkParams.dP, out, SparkParams.dC, SparkParams.dS)
    out
  }

  /** Width of the rule-hint block appended after θ. */
  val hintDim: Int = 8

  /** The [[JoinAlgo.code]] of the parametric-rule join algorithm implied by
    * the build-side size and the `θp` thresholds in `unit19` — the model's
    * copy of `Simulator.chooseAlgo`, and the compile-time stand-in for the
    * physical operator the paper encodes.
    */
  def ruleAlgoCode(isJoin: Boolean, buildMb: Double, unit19: Array[Double]): Int = {
    import SparkParams._
    JoinAlgo.code(Option.when(isJoin) {
      val s3 = ShuffledHashThresholdMb.fromUnit(unit19(dC + 2))
      val s4 = BroadcastThresholdMb.fromUnit(unit19(dC + 3))
      val s5 = ShufflePartitions.fromUnit(unit19(dC + 4))
      if (buildMb <= s4) JoinAlgo.BHJ
      else if (buildMb / math.max(1.0, s5) <= s3) JoinAlgo.SHJ
      else JoinAlgo.SMJ
    })
  }

  /** Rule hints appended after θ: physical-operator one-hot, spill risk,
    * log total cores, log per-task memory, and log partition count — all
    * deterministic functions of the plan statistics and `θ`, mirroring the
    * physical-plan information the paper's runtime models see (§4.3). Both
    * the trainer and the predictors call this, so train/serve skew is
    * impossible by construction.
    */
  def hints(
      algoCode: Int,
      isScan: Boolean,
      writesShuffle: Boolean,
      inMb: Double,
      unit19: Array[Double]): Array[Double] = {
    import repro.cluster.CostModel
    val c = repro.params.ThetaC.fromUnit(unit19.slice(0, SparkParams.dC).toVector)
    val p = repro.params.ThetaP.fromUnit(unit19.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP).toVector)
    val s = repro.params.ThetaS.fromUnit(unit19.slice(SparkParams.dC + SparkParams.dP, SparkParams.dAll).toVector)
    val partitions =
      if (isScan) CostModel.scanPartitions(inMb, p)
      else CostModel.shufflePartitions(inMb, c, p, s)
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

  /** Whether a subQ writes its output to a shuffle exchange under `θ`: it
    * has a parent, and the parent join is not compiled as a BHJ (broadcast
    * parents consume their children via collect/pipeline instead). Shared
    * by the trainer and predictors.
    */
  def writesShuffle(
      g: repro.workload.QueryGraph,
      subId: Int,
      parentOf: Map[Int, Int],
      parentBuildMb: Int => Double,
      unit19: Array[Double]): Boolean =
    parentOf.get(subId) match {
      case None => false
      case Some(pid) =>
        val parent = g.subQs(pid)
        !(parent.isJoin &&
          ruleAlgoCode(isJoin = true, parentBuildMb(pid), unit19) == JoinAlgo.code(Some(JoinAlgo.BHJ)))
    }
}
