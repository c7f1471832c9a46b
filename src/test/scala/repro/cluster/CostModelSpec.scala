package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.TestProp.forAllSeeds
import repro.params.{Configuration, ThetaC, ThetaP, ThetaS}
import repro.workload.{JoinAlgo, OpType, SubQ}
import repro.cluster.CostModel._

/** The analytical stage-cost model: partition rules, rates, spill, skew. */
class CostModelSpec extends AnyFunSuite {
  private val spec = ClusterSpec.default
  private val c = ThetaC.default
  private val p = ThetaP.default
  private val s = ThetaS.default

  private def scanSub(bytes: Long = 1L << 30, rows: Long = 10000000L): SubQ =
    SubQ(0, Vector(OpType.Scan, OpType.Filter, OpType.Exchange), Vector.empty, Some("t"),
      bytes, rows, bytes / 2, rows, 1.0, 1.2, 0)

  private def joinSub(inBytes: Long, inRows: Long, skew: Double = 1.5): SubQ =
    SubQ(2, Vector(OpType.Join, OpType.Exchange), Vector(0, 1), None,
      inBytes, inRows, inBytes / 2, inRows / 2, 1.0, skew, 1)

  // ---- partition rules --------------------------------------------------

  test("shufflePartitions caps s5 by the AQE advisory size") {
    val many = p.copy(shufflePartitions = 2000, advisoryPartitionMb = 64)
    assert(CostModel.shufflePartitions(640.0, many, s) == 10) // 640MB/64MB
  }

  test("shufflePartitions never exceeds s5") {
    val few = p.copy(shufflePartitions = 20, advisoryPartitionMb = 16)
    assert(CostModel.shufflePartitions(10000.0, few, s) == 20)
  }

  test("shufflePartitions respects the θs minimum partition size") {
    val tiny = p.copy(shufflePartitions = 2000, advisoryPartitionMb = 16)
    val bigMin = ThetaS(smallPartitionFactor = 0.5, minPartitionSizeMb = 64)
    val got = CostModel.shufflePartitions(320.0, tiny, bigMin)
    assert(got <= 5) // 320MB / 64MB minimum
  }

  test("shufflePartitions is at least 1") {
    assert(CostModel.shufflePartitions(0.001, p, s) == 1)
  }

  test("scanPartitions follows maxPartitionBytes") {
    val got = CostModel.scanPartitions(1280.0, p.copy(maxPartitionBytesMb = 128, openCostMb = 4))
    assert(got >= 10 && got <= 11)
  }

  test("larger advisory size means fewer partitions") {
    forAllSeeds(20) { rnd =>
      val mb = 100.0 + rnd.nextDouble() * 10000
      val small = CostModel.shufflePartitions(mb, p.copy(advisoryPartitionMb = 16), s)
      val large = CostModel.shufflePartitions(mb, p.copy(advisoryPartitionMb = 256), s)
      assert(large <= small)
    }
  }

  // ---- skew rules -------------------------------------------------------

  test("effectiveSkew splits oversized join partitions to the advisory size") {
    val skewed = CostModel.effectiveSkew(skew = 8.0, meanPartMb = 200.0,
      p.copy(skewedPartitionThresholdMb = 256, skewedPartitionFactor = 3), isJoin = true)
    assert(skewed < 8.0)
  }

  test("effectiveSkew leaves non-join stages alone") {
    assert(CostModel.effectiveSkew(8.0, 200.0, p, isJoin = false) == 8.0)
  }

  test("effectiveSkew leaves small partitions alone") {
    val got = CostModel.effectiveSkew(2.0, 1.0,
      p.copy(skewedPartitionThresholdMb = 1024, skewedPartitionFactor = 10), isJoin = true)
    assert(got == 2.0)
  }

  // ---- stage costs ------------------------------------------------------

  private def scanCost(conf: Configuration, bytes: Long = 1L << 30): StageCost =
    CostModel.stageCost(spec, scanSub(bytes), Vector(SideStats(bytes, 10000000L)),
      Vector(ReadMode.Table), None, writesShuffle = true, conf.c, conf.p, conf.s)

  test("stage cost scales with input size") {
    val small = scanCost(Configuration.default, 1L << 28)
    val big   = scanCost(Configuration.default, 1L << 32)
    assert(big.workCoreSec > small.workCoreSec * 4)
    assert(big.ioMb > small.ioMb * 4)
  }

  test("skipping the shuffle write is cheaper") {
    val sub = scanSub()
    val in = Vector(SideStats(sub.trueInputBytes, sub.trueInputRows))
    val w = CostModel.stageCost(spec, sub, in, Vector(ReadMode.Table), None, true, c, p, s)
    val nw = CostModel.stageCost(spec, sub, in, Vector(ReadMode.Table), None, false, c, p, s)
    assert(nw.workCoreSec < w.workCoreSec)
    assert(nw.ioMb < w.ioMb)
  }

  test("shuffle compression halves wire IO") {
    val on  = scanCost(Configuration.default)
    val off = scanCost(Configuration.default.copy(
      c = c.copy(shuffleCompress = false)))
    // Scan read is uncompressed either way; only the written output differs.
    assert(on.ioMb < off.ioMb)
  }

  private def joinCost(algo: JoinAlgo, probeMb: Long, buildMb: Long,
                       conf: Configuration = Configuration.default,
                       probeMode: ReadMode = ReadMode.Shuffle): StageCost = {
    val probe = SideStats(probeMb << 20, probeMb * 10000)
    val build = SideStats(buildMb << 20, buildMb * 10000)
    CostModel.stageCost(spec, joinSub((probeMb + buildMb) << 20, (probeMb + buildMb) * 10000),
      Vector(probe, build), Vector(probeMode, ReadMode.Shuffle), Some(algo),
      writesShuffle = true, conf.c, conf.p, conf.s)
  }

  test("BHJ with a small build side beats SMJ") {
    val cores = ThetaC.default.totalCores
    val bhj = joinCost(JoinAlgo.BHJ, 4000, 8, probeMode = ReadMode.Pipelined)
    val smj = joinCost(JoinAlgo.SMJ, 4000, 8)
    assert(bhj.workCoreSec / cores + bhj.wallExtraSec < smj.workCoreSec / cores)
    assert(bhj.ioMb < smj.ioMb)
  }

  test("SHJ saves the sort CPU relative to SMJ when memory suffices") {
    val big = Configuration.default.copy(c = c.copy(execMemoryGb = 32))
    val shj = joinCost(JoinAlgo.SHJ, 2000, 500, big)
    val smj = joinCost(JoinAlgo.SMJ, 2000, 500, big)
    assert(shj.workCoreSec < smj.workCoreSec)
  }

  test("broadcasting a huge build side is catastrophic (Fig 3b)") {
    val small = joinCost(JoinAlgo.BHJ, 4000, 100, probeMode = ReadMode.Pipelined)
    val huge  = joinCost(JoinAlgo.BHJ, 4000, 5000, probeMode = ReadMode.Pipelined)
    // 50x the build bytes must cost far more than 50x in serialized wall
    // time (driver thrash past the cap).
    assert(huge.wallExtraSec > small.wallExtraSec * 100)
  }

  test("SHJ spills when the per-task build exceeds task memory") {
    val tiny = Configuration.default.copy(
      c = c.copy(execCores = 8, execMemoryGb = 2),
      p = p.copy(shufflePartitions = 20, advisoryPartitionMb = 256))
    val cost = joinCost(JoinAlgo.SHJ, 4000, 3000, tiny)
    assert(cost.spillFactor > 1.0)
  }

  test("ample memory avoids the spill") {
    val roomy = Configuration.default.copy(c = c.copy(execCores = 2, execMemoryGb = 32))
    val cost = joinCost(JoinAlgo.SHJ, 1000, 200, roomy)
    assert(cost.spillFactor == 1.0)
  }

  test("maxTaskSec reflects skew") {
    val even = CostModel.stageCost(spec, joinSub(1L << 32, 20000000L, skew = 1.0),
      Vector(SideStats(1L << 31, 10000000L), SideStats(1L << 31, 10000000L)),
      Vector(ReadMode.Shuffle, ReadMode.Shuffle), Some(JoinAlgo.SMJ), true, c, p, s)
    val skewed = CostModel.stageCost(spec, joinSub(1L << 32, 20000000L, skew = 3.0),
      Vector(SideStats(1L << 31, 10000000L), SideStats(1L << 31, 10000000L)),
      Vector(ReadMode.Shuffle, ReadMode.Shuffle), Some(JoinAlgo.SMJ), true, c, p, s)
    assert(skewed.maxTaskSec > even.maxTaskSec * 1.5)
    assert(math.abs(skewed.workCoreSec - even.workCoreSec) / even.workCoreSec < 0.01)
  }

  test("local shuffle read (runtime BHJ) is cheaper than a full shuffle read") {
    val localc = joinCost(JoinAlgo.BHJ, 2000, 8, probeMode = ReadMode.LocalShuffle)
    val fullc  = joinCost(JoinAlgo.SHJ, 2000, 8, probeMode = ReadMode.Shuffle)
    assert(localc.workCoreSec < fullc.workCoreSec)
  }

  test("larger fetch buffers (k5) speed up shuffle reads") {
    val slow = joinCost(JoinAlgo.SMJ, 2000, 500,
      Configuration.default.copy(c = c.copy(maxSizeInFlightMb = 8)))
    val fast = joinCost(JoinAlgo.SMJ, 2000, 500,
      Configuration.default.copy(c = c.copy(maxSizeInFlightMb = 96)))
    assert(fast.workCoreSec < slow.workCoreSec)
  }

  test("cloud cost combines CPU, memory and IO prices") {
    val cost = spec.costUsd(c, latSec = 3600.0, ioMb = 1024.0)
    val expected = spec.cpuUsdPerCoreHour * c.totalCores +
      spec.memUsdPerGbHour * c.totalMemGb + spec.ioUsdPerGb
    assert(math.abs(cost - expected) < 1e-9)
  }

  test("stageCost rejects mismatched inputs and read modes") {
    intercept[IllegalArgumentException] {
      CostModel.stageCost(spec, scanSub(), Vector(SideStats(1, 1)),
        Vector(ReadMode.Table, ReadMode.Shuffle), None, true, c, p, s)
    }
  }
}
