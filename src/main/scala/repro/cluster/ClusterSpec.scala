package repro.cluster

import repro.params.ThetaC

/** Static description of the simulated cluster and its price book.
  *
  * Mirrors the paper's testbed (§D.1.1): 6 nodes, 2×16-core Xeon and 768 GB
  * RAM each. Rates are per-core calibration constants for the analytical
  * cost model; prices turn (resources × time, IO) into the cloud-cost
  * objective of §3.3.2.
  */
final case class ClusterSpec(
    nodes: Int,
    coresPerNode: Int,
    memGbPerNode: Int,
    scanMbPerSecCore: Double,
    shuffleWriteMbPerSecCore: Double,
    shuffleReadMbPerSecCore: Double,
    pipeReadMbPerSecCore: Double,
    compressMbPerSecCore: Double,
    broadcastMbPerSec: Double,
    nodeIoMbPerSec: Double,
    rowCpuNanos: Double,
    sortRowNanos: Double,
    hashRowNanos: Double,
    aggRowNanos: Double,
    stageLaunchSec: Double,
    taskOverheadSec: Double,
    contextStartupSec: Double,
    execStartupSec: Double,
    driverBroadcastCapMb: Double,
    cpuUsdPerCoreHour: Double,
    memUsdPerGbHour: Double,
    ioUsdPerGb: Double) {

  def totalCores: Int = nodes * coresPerNode
  def totalMemGb: Int = nodes * memGbPerNode

  /** Aggregate cluster disk/network bandwidth (MB/s) — IO-bound stages
    * cannot go faster than this no matter how many cores are allocated,
    * which is the main source of diminishing returns at scale.
    */
  def clusterIoMbPerSec: Double = nodes * nodeIoMbPerSec

  /** Spark-context bring-up time under `θc`: scheduler start plus one
    * launch per executor (the price of a large context on a short query).
    */
  def startupSec(c: ThetaC): Double = contextStartupSec + execStartupSec * c.execInstances

  /** Cloud cost (§3.3.2) in USD of holding `θc`'s resources for `latSec`
    * while moving `ioMb`: CPU-hours + memory-hours + IO. The simulator
    * bills executed runs and the models price predictions with it.
    */
  def costUsd(c: ThetaC, latSec: Double, ioMb: Double): Double = {
    val hours = latSec / 3600.0
    cpuUsdPerCoreHour * c.totalCores * hours +
      memUsdPerGbHour * c.totalMemGb * hours +
      ioUsdPerGb * (ioMb / 1024.0)
  }
}

object ClusterSpec {
  /** The default 6×32-core / 768 GB-per-node cluster of the paper. */
  val default: ClusterSpec = ClusterSpec(
    nodes = 6,
    coresPerNode = 32,
    memGbPerNode = 768,
    scanMbPerSecCore = 150.0,
    shuffleWriteMbPerSecCore = 90.0,
    shuffleReadMbPerSecCore = 110.0,
    pipeReadMbPerSecCore = 500.0,
    compressMbPerSecCore = 350.0,
    broadcastMbPerSec = 500.0,
    nodeIoMbPerSec = 2200.0,
    rowCpuNanos = 50.0,
    sortRowNanos = 28.0,
    hashRowNanos = 120.0,
    aggRowNanos = 130.0,
    stageLaunchSec = 0.12,
    taskOverheadSec = 0.004,
    contextStartupSec = 1.0,
    execStartupSec = 0.12,
    driverBroadcastCapMb = 2048.0,
    cpuUsdPerCoreHour = 0.50,
    memUsdPerGbHour = 0.03,
    ioUsdPerGb = 0.0005)
}
