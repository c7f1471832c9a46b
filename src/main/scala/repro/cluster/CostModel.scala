package repro.cluster

import repro.params.{ThetaC, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, OpType, SubQ}

/** Analytical per-stage cost model of Spark execution.
  *
  * Every mechanism the paper's tuning exploits is modeled explicitly:
  *
  *   - reads by [[CostModel.StageInput]]: table scans, a compiled BHJ's
  *     pipelined probe, a runtime BHJ's local shuffle read, a BHJ's
  *     broadcast build side, and shuffle fetches for every other side;
  *   - partition counts from `s8`/`s9` (file splits) and `s5`/`s1`/`s11`/`s10`
  *     (shuffle partitions, AQE advisory coalescing, θs hygiene), so the
  *     parallelism sweet spot moves with total cores `k1·k3` (Fig 3c);
  *   - join algorithms BHJ/SHJ/SMJ with their asymmetric costs: BHJ skips
  *     shuffles but replicates the build to every executor (a compile-time
  *     BHJ on a misestimated build side is the Fig 3b catastrophe), SHJ
  *     saves the sort but risks spilling, SMJ pays `n log n`;
  *   - shuffle write/read rates shaped by compression `k7`, fetch size `k5`
  *     and the bypass-merge threshold `k6`;
  *   - spill whenever the per-task working set exceeds `k2·k8/k1`, or a
  *     BHJ's build side exceeds 60% of an executor's execution memory;
  *   - skew (`β`): a stage's slowest task is `skew ×` the mean unless the
  *     skew-join rules `s6`/`s7` split oversized partitions.
  *
  * All costs are deterministic; `Simulator` decides each stage's input and
  * layers scheduling, AQE and observation noise on top.
  */
object CostModel {

  /** Statistics of one stage input side. */
  final case class SideStats(bytes: Long, rows: Long) {
    def mb: Double = bytes / 1048576.0
  }

  /** What one stage reads, decided once by the simulator: the statistics of
    * each input side (a join's build side last) and the join algorithm the
    * stage runs (`None` for a non-join).
    */
  sealed abstract class StageInput(val sides: Vector[SideStats], val algo: Option[JoinAlgo])
      extends Product with Serializable
  object StageInput {
    /** A scan's columnar read of its base table. */
    final case class Table(in: SideStats) extends StageInput(Vector(in), None)
    /** A non-join stage's shuffle fetch of its children's outputs. */
    final case class Shuffle(children: Vector[SideStats]) extends StageInput(children, None)
    /** A join's two sides, the algorithm compile time `planned` and the one
      * it `runs` after AQE's SMJ→{SHJ,BHJ} conversion. A compiled BHJ
      * pipelines its probe side; a runtime BHJ reads it from local shuffle
      * files; any other join fetches it over the shuffle.
      */
    final case class Join(probe: SideStats, build: SideStats, planned: JoinAlgo, runs: JoinAlgo)
        extends StageInput(Vector(probe, build), Some(runs))
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
    * @param input         what the stage reads, on true statistics: a scan
    *                      a `Table`, a join a `Join`, any other stage a
    *                      non-empty `Shuffle`
    * @param writesShuffle whether the stage writes its output to an exchange
    */
  def stageCost(
      spec: ClusterSpec,
      sub: SubQ,
      input: StageInput,
      writesShuffle: Boolean,
      c: ThetaC,
      p: ThetaP,
      s: ThetaS): StageCost = {
    require(input match {
      case _: StageInput.Table          => sub.isScan
      case _: StageInput.Join           => sub.isJoin
      case StageInput.Shuffle(children) => !sub.isScan && !sub.isJoin && children.nonEmpty
    }, s"subQ ${sub.id} (${sub.ops.mkString(",")}) cannot read $input")
    val totalInMb = input.sides.map(_.mb).sum
    val outMb     = sub.trueOutBytes / 1048576.0
    val outRows   = math.max(1.0, sub.trueOutRows.toDouble)

    val partitions = input match {
      case StageInput.Join(probe, _, JoinAlgo.BHJ, _) =>
        scanPartitions(probe.mb, p) // pipelined with the probe child
      case _: StageInput.Table => scanPartitions(totalInMb, p)
      case _                   => shufflePartitions(totalInMb, p, s)
    }

    var workSec = 0.0
    var ioMb    = 0.0
    var wallExtra = 0.0

    // Input reads, one side at a time in `sides` order.
    val compress = if (c.shuffleCompress) 0.5 else 1.0
    def read(cpuSec: Double, mb: Double): Unit = { workSec += cpuSec; ioMb += mb }
    def shuffleRead(in: SideStats): Unit = {
      val wire = in.mb * compress
      val cpu  = if (c.shuffleCompress) in.mb / spec.compressMbPerSecCore else 0.0
      read(wire / shuffleReadRate(spec, c) + cpu, wire)
    }
    input match {
      case StageInput.Table(in) => read(in.mb / spec.scanMbPerSecCore, in.mb)
      case StageInput.Shuffle(children) => children.foreach(shuffleRead)
      case StageInput.Join(probe, build, planned, runs) =>
        if (planned == JoinAlgo.BHJ) read(probe.mb / spec.pipeReadMbPerSecCore, 0.0)
        else if (runs == JoinAlgo.BHJ) {
          val wire = probe.mb * compress // map-local files: no network fetch
          read(wire / (shuffleReadRate(spec, c) * 2.5), wire)
        } else shuffleRead(probe)
        if (runs == JoinAlgo.BHJ) {
          // Collect at the driver + replicate to every executor. Broadcasting
          // a huge build side is the Fig 3(b) catastrophe: the fan-out is
          // serialized through the driver, and past the driver's memory cap
          // it thrashes (spill/GC/retry) — and a compile-time BHJ cannot be
          // undone by AQE.
          val thrash = if (build.mb > spec.driverBroadcastCapMb) 4.0
                       else if (build.mb > spec.driverBroadcastCapMb / 2) 2.0
                       else 1.0
          wallExtra += build.mb / spec.broadcastMbPerSec * (1.0 + 0.03 * c.execInstances) * thrash
          ioMb      += build.mb // collect once; replication rides the network, not storage IO
          workSec   += build.rows * spec.hashRowNanos * 1e-9 * c.execInstances // build per executor
        } else shuffleRead(build)
    }

    // Operator CPU.
    val nRows = input.sides.map(_.rows.toDouble).sum
    sub.ops.foreach(op => (op, input) match {
      case (OpType.Filter | OpType.Project | OpType.Union, _) =>
        workSec += nRows * spec.rowCpuNanos * 1e-9
      case (OpType.Join, StageInput.Join(_, _, _, JoinAlgo.SMJ)) =>
        input.sides.foreach(in => workSec += in.rows * spec.sortRowNanos * 1e-9 * log2(in.rows.toDouble / partitions))
        workSec += nRows * spec.rowCpuNanos * 1e-9
      case (OpType.Join, StageInput.Join(probe, build, _, JoinAlgo.SHJ)) =>
        workSec += build.rows * spec.hashRowNanos * 1e-9
        workSec += probe.rows * spec.hashRowNanos * 0.8 * 1e-9
      case (OpType.Join, StageInput.Join(probe, _, _, JoinAlgo.BHJ)) =>
        workSec += probe.rows * spec.hashRowNanos * 0.8 * 1e-9 // probe only; build counted above
      case (OpType.Aggregate, _) =>
        workSec += nRows * spec.aggRowNanos * 1e-9
      case (OpType.Sort, _) =>
        workSec += outRows * spec.sortRowNanos * 1e-9 * log2(outRows / partitions)
      case _ => () // a scan's CPU is in its read rate; the exchange write is below
    })

    if (writesShuffle) {
      val (cost, io) = writeCost(spec, c, p, outMb)
      workSec += cost; ioMb += io
    }

    // Shuffle fetch setup: every (reduce partition × executor) pair opens a
    // connection — over-partitioning on a wide context wastes real work.
    // Charged on every non-scan stage, so a compiled BHJ pays it too,
    // although it pipelines its probe and broadcasts its build.
    if (!sub.isScan)
      workSec += partitions.toDouble * c.execInstances * 8e-4

    // Memory pressure → spill. A BHJ holds its build side per executor; any
    // other stage's working set is per task and depends on the operator.
    val spill = input match {
      case StageInput.Join(_, build, _, JoinAlgo.BHJ) =>
        val (wsMb, memMb) = (build.mb * 1.8, c.execMemoryGb * 1024.0 * c.memoryFraction * 0.6)
        if (wsMb > memMb) 1.0 + math.min(6.0, 4.0 * (wsMb / memMb - 1.0)) else 1.0
      case _ =>
        val wsMb = input match {
          case StageInput.Join(_, build, _, JoinAlgo.SHJ) => build.mb / partitions * 1.8
          case StageInput.Join(probe, build, _, _)        => math.max(probe.mb, build.mb) / partitions * 1.2 // SMJ
          case _ if sub.ops.contains(OpType.Aggregate)    => totalInMb / partitions * 1.5
          case _ if sub.ops.contains(OpType.Sort)         => totalInMb / partitions * 1.2
          case _ => 0.0
        }
        if (wsMb > c.taskMemoryMb) 1.0 + math.min(3.0, wsMb / c.taskMemoryMb - 1.0) else 1.0
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
