package repro.plan

import repro.{Oracle, SparkSpec}
import repro.params.{ThetaP, ThetaS}

/** Tuned `θp`/`θs` copies applied to real Spark: result correctness via the
  * DuckDB oracle, and actual Catalyst/AQE join-strategy flips.
  */
class ConfApplicatorSpec extends SparkSpec {
  private lazy val tables = TpchQueries.registerTables(spark, sf = 0.002)

  private val conservative = ThetaP.default.copy(
    broadcastThresholdMb = 0, shuffledHashThresholdMb = 0, shufflePartitions = 17)
  private val aggressive = ThetaP.default.copy(
    broadcastThresholdMb = 64, shufflePartitions = 7)

  test("withConf restores previous conf values") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    ConfApplicator.withConf(spark, Map(key -> "7")) {
      assert(spark.conf.get(key) == "7")
    }
    assert(spark.conf.get(key) == before)
  }

  test("withConf restores even when the body throws") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    intercept[RuntimeException] {
      ConfApplicator.withConf(spark, Map(key -> "9"))(throw new RuntimeException("boom"))
    }
    assert(spark.conf.get(key) == before)
  }

  test("θp confs map to Spark keys with byte units") {
    assert(ConfApplicator.thetaPConfs(ThetaP.default) == Map(
      "spark.sql.adaptive.advisoryPartitionSizeInBytes" -> "67108864",
      "spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin" -> "0.2",
      "spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold" -> "0",
      "spark.sql.adaptive.autoBroadcastJoinThreshold" -> "10485760",
      "spark.sql.autoBroadcastJoinThreshold" -> "10485760",
      "spark.sql.shuffle.partitions" -> "200",
      "spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes" -> "268435456",
      "spark.sql.adaptive.skewJoin.skewedPartitionFactor" -> "5",
      "spark.sql.files.maxPartitionBytes" -> "134217728",
      "spark.sql.files.openCostInBytes" -> "4194304"))
    val p = ThetaP(advisoryPartitionMb = 32, nonEmptyPartitionRatio = 0.05, shuffledHashThresholdMb = 100,
      broadcastThresholdMb = 64, shufflePartitions = 40, skewedPartitionThresholdMb = 512,
      skewedPartitionFactor = 3, maxPartitionBytesMb = 256, openCostMb = 2)
    assert(ConfApplicator.thetaPConfs(p) == Map(
      "spark.sql.adaptive.advisoryPartitionSizeInBytes" -> "33554432",
      "spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin" -> "0.05",
      "spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold" -> "104857600",
      "spark.sql.adaptive.autoBroadcastJoinThreshold" -> "67108864",
      "spark.sql.autoBroadcastJoinThreshold" -> "67108864",
      "spark.sql.shuffle.partitions" -> "40",
      "spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes" -> "536870912",
      "spark.sql.adaptive.skewJoin.skewedPartitionFactor" -> "3",
      "spark.sql.files.maxPartitionBytes" -> "268435456",
      "spark.sql.files.openCostInBytes" -> "2097152"))
  }

  test("θs confs map to the two stage-level keys") {
    assert(ConfApplicator.thetaSConfs(ThetaS.default) == Map(
      "spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor" -> "0.2",
      "spark.sql.adaptive.coalescePartitions.minPartitionSize" -> "1048576"))
    assert(ConfApplicator.thetaSConfs(ThetaS(smallPartitionFactor = 0.35, minPartitionSizeMb = 16)) == Map(
      "spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor" -> "0.35",
      "spark.sql.adaptive.coalescePartitions.minPartitionSize" -> "16777216"))
  }

  test("a zero broadcast threshold yields sort-merge joins in the physical plan") {
    tables
    val df = ConfApplicator.runTuned(spark, TpchQueries.q12.sql, conservative, ThetaS.default)
    val joins = ConfApplicator.joinOperators(df)
    assert(joins.contains("SortMergeJoin"), s"got $joins")
    assert(!joins.contains("BroadcastHashJoin"))
  }

  test("a large broadcast threshold flips the same query to broadcast joins") {
    tables
    val df = ConfApplicator.runTuned(spark, TpchQueries.q12.sql, aggressive, ThetaS.default)
    val joins = ConfApplicator.joinOperators(df)
    assert(joins.contains("BroadcastHashJoin"), s"got $joins")
  }

  TpchQueries.all.foreach { q =>
    test(s"${q.name}: tuned (conservative θp) results match DuckDB") {
      tables
      val df = ConfApplicator.runTuned(spark, q.sql, conservative, ThetaS.default)
      Oracle.assertEquivalent(df, q.sql, q.tables.map(t => t -> tables(t)): _*)
    }
  }

  TpchQueries.all.take(4).foreach { q =>
    test(s"${q.name}: tuned (aggressive θp) results match DuckDB") {
      tables
      val df = ConfApplicator.runTuned(spark, q.sql, aggressive, ThetaS.default)
      Oracle.assertEquivalent(df, q.sql, q.tables.map(t => t -> tables(t)): _*)
    }
  }

  test("different θp copies produce identical results but different plans") {
    tables
    val a = ConfApplicator.runTuned(spark, TpchQueries.q14.sql, conservative, ThetaS.default)
    val planA = a.queryExecution.executedPlan.toString
    val b = ConfApplicator.runTuned(spark, TpchQueries.q14.sql, aggressive, ThetaS.default)
    val planB = b.queryExecution.executedPlan.toString
    assert(planA != planB)
    assert(a.collect().map(_.toString).sorted.sameElements(b.collect().map(_.toString).sorted))
  }
}
