package repro.cluster

import repro.params.{ThetaC, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, OpType, SubQ}

/** Analytical per-stage cost model of Spark execution.
  *
  * Every mechanism the paper's tuning exploits is modeled explicitly:
  *
  *   - partition counts from `s8`/`s9` (file splits) and `s5`/`s1`/`s11`/`s10`
  *     (shuffle partitions, AQE advisory coalescing, θs hygiene), so the
  *     parallelism sweet spot moves with total cores `k1·k3` (Fig 3c);
  *   - join algorithms BHJ/SHJ/SMJ with their asymmetric costs: BHJ skips
  *     shuffles but replicates the build to every executor (a compile-time
  *     BHJ on a misestimated build side is the Fig 3b catastrophe), SHJ
  *     saves the sort but risks spilling, SMJ pays `n log n`;
  *   - shuffle write/read rates shaped by compression `k7`, fetch size `k5`
  *     and the bypass-merge threshold `k6`;
  *   - spill whenever the per-task working set exceeds `k2·k8/k1`;
  *   - skew (`β`): a stage's slowest task is `skew ×` the mean unless the
  *     skew-join rules `s6`/`s7` split oversized partitions.
  *
  * All costs are deterministic; `Simulator` layers scheduling, AQE and
  * observation noise on top.
  */
object CostModel {

  /** Statistics of one stage input side. */
  final case class SideStats(bytes: Long, rows: Long) {
    def mb: Double = bytes / 1048576.0
  }

  /** How a stage obtains one input. */
  sealed trait ReadMode extends Product with Serializable
  object ReadMode {
    /** Columnar read from a base table. */
    case object Table extends ReadMode
    /** Full shuffle fetch over the network. */
    case object Shuffle extends ReadMode
    /** AQE local shuffle read (BHJ converted at runtime — map-local files). */
    case object LocalShuffle extends ReadMode
    /** Pipelined from the child (BHJ planned at compile time — no exchange). */
    case object Pipelined extends ReadMode
  }

  /** Cost of one stage.
    *
    * @param partitions  task count after all partition rules
    * @param workCoreSec Σ task compute time in core-seconds (the analytical-
    *                    latency numerator of §4.2)
    * @param maxTaskSec  slowest task (drives wall time under skew)
    * @param wallExtraSec serialized extra wall time (broadcast collect+ship)
    * @param ioMb        bytes moved (scan + shuffle r/w + broadcast), in MB
    * @param spillFactor ≥1; how much spilling inflated the stage
    */
  final case class StageCost(
      partitions: Int,
      workCoreSec: Double,
      maxTaskSec: Double,
      wallExtraSec: Double,
      ioMb: Double,
      spillFactor: Double)

  private val Ln2 = math.log(2.0)
  private def log2(x: Double): Double = math.log(math.max(2.0, x)) / Ln2

  /** Post-shuffle partition count: pre-AQE `s5`, coalesced towards the
    * advisory size `s1`, kept above the θs minimum partition size.
    */
  def shufflePartitions(inputMb: Double, p: ThetaP, s: ThetaS): Int = {
    val preAqe   = p.shufflePartitions
    val advisory = math.max(1, math.ceil(inputMb / p.advisoryPartitionMb).toInt)
    val coalesced = math.min(preAqe, advisory)
    val minSizeMb = math.max(s.minPartitionSizeMb.toDouble, s.smallPartitionFactor * p.advisoryPartitionMb)
    val capBySize = math.max(1, math.floor(inputMb / math.max(1e-6, minSizeMb)).toInt)
    math.max(1, math.min(coalesced, capBySize))
  }

  /** Scan partition count from file-split parameters `s8`, `s9`. */
  def scanPartitions(inputMb: Double, p: ThetaP): Int =
    math.max(1, math.ceil(inputMb / math.max(1.0, p.maxPartitionBytesMb - p.openCostMb * 0.5)).toInt)

  /** Effective skew after the skew-join split rules (`s6`, `s7`): an
    * oversized partition is split to roughly the advisory size.
    */
  def effectiveSkew(skew: Double, meanPartMb: Double, p: ThetaP, isJoin: Boolean): Double = {
    if (!isJoin || skew <= 1.0) return skew
    val maxPartMb = skew * meanPartMb
    val threshold = math.max(p.skewedPartitionThresholdMb.toDouble, p.skewedPartitionFactor * meanPartMb)
    if (maxPartMb > threshold) math.max(1.0, math.max(meanPartMb, p.advisoryPartitionMb) / math.max(1e-6, meanPartMb))
    else skew
  }

  /** Shuffle-read rate in MB/s/core, shaped by fetch size `k5` and degraded
    * by fetch fan-in as the executor count grows.
    */
  private def shuffleReadRate(spec: ClusterSpec, c: ThetaC): Double =
    spec.shuffleReadMbPerSecCore * (0.55 + 0.45 * math.min(1.0, c.maxSizeInFlightMb / 48.0)) /
      (1.0 + 0.012 * c.execInstances)

  /** Core-seconds and IO MB to read one input. */
  private def readCost(spec: ClusterSpec, c: ThetaC, in: SideStats, mode: ReadMode): (Double, Double) = {
    val compress = if (c.shuffleCompress) 0.5 else 1.0
    mode match {
      case ReadMode.Table =>
        (in.mb / spec.scanMbPerSecCore, in.mb)
      case ReadMode.Shuffle =>
        val wire = in.mb * compress
        val cpu  = if (c.shuffleCompress) in.mb / spec.compressMbPerSecCore else 0.0
        (wire / shuffleReadRate(spec, c) + cpu, wire)
      case ReadMode.LocalShuffle =>
        val wire = in.mb * compress
        (wire / (shuffleReadRate(spec, c) * 2.5), wire)
      case ReadMode.Pipelined =>
        (in.mb / spec.pipeReadMbPerSecCore, 0.0)
    }
  }

  /** Core-seconds and IO MB to write the stage output to shuffle. */
  private def writeCost(spec: ClusterSpec, c: ThetaC, p: ThetaP, outMb: Double): (Double, Double) = {
    val compress = if (c.shuffleCompress) 0.5 else 1.0
    val bypass   = if (p.shufflePartitions <= c.bypassMergeThreshold) 0.75 else 1.0
    val wire     = outMb * compress
    val cpu      = if (c.shuffleCompress) outMb / spec.compressMbPerSecCore else 0.0
    (wire / spec.shuffleWriteMbPerSecCore * bypass + cpu, wire)
  }

  /** Full cost of a stage.
    *
    * @param sub           the subQ being executed
    * @param inputs        per-input true statistics (2 entries for joins,
    *                      build side last; 1+ otherwise)
    * @param readModes     one mode per input
    * @param algo          join algorithm if this is a join stage
    * @param writesShuffle whether the stage writes its output to an exchange
    */
  def stageCost(
      spec: ClusterSpec,
      sub: SubQ,
      inputs: Vector[SideStats],
      readModes: Vector[ReadMode],
      algo: Option[JoinAlgo],
      writesShuffle: Boolean,
      c: ThetaC,
      p: ThetaP,
      s: ThetaS): StageCost = {
    require(inputs.nonEmpty && inputs.size == readModes.size, "inputs/readModes mismatch")
    val totalInMb = inputs.map(_.mb).sum
    val outMb     = sub.trueOutBytes / 1048576.0
    val outRows   = math.max(1.0, sub.trueOutRows.toDouble)

    val partitions = algo match {
      case Some(JoinAlgo.BHJ) if readModes.head == ReadMode.Pipelined =>
        scanPartitions(inputs.head.mb, p) // pipelined with the probe child
      case _ if sub.isScan => scanPartitions(totalInMb, p)
      case _               => shufflePartitions(totalInMb, p, s)
    }

    var workSec = 0.0
    var ioMb    = 0.0
    var wallExtra = 0.0

    // Input reads. For joins, the build side of a BHJ is broadcast instead.
    val joinBuild = if (algo.isDefined && inputs.size >= 2) Some(inputs.last) else None
    inputs.zip(readModes).zipWithIndex.foreach { case ((in, mode), idx) =>
      val isBhjBuild = algo.contains(JoinAlgo.BHJ) && idx == inputs.size - 1
      if (isBhjBuild) {
        // Collect at the driver + replicate to every executor. Broadcasting
        // a huge build side is the Fig 3(b) catastrophe: the fan-out is
        // serialized through the driver, and past the driver's memory cap
        // it thrashes (spill/GC/retry) — and a compile-time BHJ cannot be
        // undone by AQE.
        val thrash = if (in.mb > spec.driverBroadcastCapMb) 4.0
                     else if (in.mb > spec.driverBroadcastCapMb / 2) 2.0
                     else 1.0
        wallExtra += in.mb / spec.broadcastMbPerSec * (1.0 + 0.03 * c.execInstances) * thrash
        ioMb      += in.mb // collect once; replication rides the network, not storage IO
        workSec   += in.rows * spec.hashRowNanos * 1e-9 * c.execInstances // build per executor
      } else {
        val (cost, io) = readCost(spec, c, in, mode)
        workSec += cost; ioMb += io
      }
    }

    // Operator CPU.
    val nRows = inputs.map(_.rows.toDouble).sum
    sub.ops.foreach {
      case OpType.Filter | OpType.Project | OpType.Union =>
        workSec += nRows * spec.rowCpuNanos * 1e-9
      case OpType.Scan => () // covered by the read rate
      case OpType.Join =>
        val build = joinBuild.get
        val probe = inputs.head
        algo.get match {
          case JoinAlgo.SMJ =>
            inputs.foreach(in => workSec += in.rows * spec.sortRowNanos * 1e-9 * log2(in.rows.toDouble / partitions))
            workSec += nRows * spec.rowCpuNanos * 1e-9
          case JoinAlgo.SHJ =>
            workSec += build.rows * spec.hashRowNanos * 1e-9
            workSec += probe.rows * spec.hashRowNanos * 0.8 * 1e-9
          case JoinAlgo.BHJ =>
            workSec += probe.rows * spec.hashRowNanos * 0.8 * 1e-9 // probe only; build counted above
        }
      case OpType.Aggregate =>
        workSec += nRows * spec.aggRowNanos * 1e-9
      case OpType.Sort =>
        workSec += outRows * spec.sortRowNanos * 1e-9 * log2(outRows / partitions)
      case OpType.Exchange => () // write handled below
    }

    if (writesShuffle) {
      val (cost, io) = writeCost(spec, c, p, outMb)
      workSec += cost; ioMb += io
    }

    // Shuffle fetch setup: every (reduce partition × executor) pair opens a
    // connection — over-partitioning on a wide context wastes real work.
    if (readModes.contains(ReadMode.Shuffle))
      workSec += partitions.toDouble * c.execInstances * 8e-4

    // Memory pressure → spill. Working set per task depends on the operator.
    val taskMemMb = c.taskMemoryMb
    val execMemMb = c.execMemoryGb * 1024.0 * c.memoryFraction
    val wsPerTaskMb = algo match {
      case Some(JoinAlgo.SHJ) => joinBuild.get.mb / partitions * 1.8
      case Some(JoinAlgo.SMJ) => inputs.map(_.mb).max / partitions * 1.2
      case Some(JoinAlgo.BHJ) => 0.0 // handled at executor level below
      case None if sub.ops.contains(OpType.Aggregate) => totalInMb / partitions * 1.5
      case None if sub.ops.contains(OpType.Sort)      => totalInMb / partitions * 1.2
      case None => 0.0
    }
    var spill = 1.0
    if (wsPerTaskMb > taskMemMb)
      spill = 1.0 + math.min(3.0, wsPerTaskMb / taskMemMb - 1.0)
    if (algo.contains(JoinAlgo.BHJ)) {
      val bhjWsMb = joinBuild.get.mb * 1.8
      if (bhjWsMb > execMemMb * 0.6)
        spill = math.max(spill, 1.0 + math.min(6.0, 4.0 * (bhjWsMb / (execMemMb * 0.6) - 1.0)))
    }
    workSec *= spill
    ioMb    *= (1.0 + (spill - 1.0) * 0.5) // spills re-read/re-write

    // Skew shapes the slowest task.
    val meanPartMb = totalInMb / partitions
    val skewEff    = effectiveSkew(sub.skew, meanPartMb, p, sub.isJoin)
    val meanTask   = workSec / partitions
    val maxTask    = meanTask * skewEff

    StageCost(partitions, workSec, maxTask, wallExtra, ioMb, spill)
  }
}
