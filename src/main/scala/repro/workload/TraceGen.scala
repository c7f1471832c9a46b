package repro.workload

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.cluster.{ClusterSpec, Simulator}
import repro.params.{Configuration, Sampling, SparkParams}

/** Training-trace collection (§6, "Workloads").
  *
  * The paper turns each benchmark query into a template, generates 50k
  * parametric queries, and runs each under one Latin-Hypercube-sampled
  * configuration to collect traces. We do the same against the simulator,
  * distributed over Spark: each run is a (template, variant, configuration)
  * triple executed by `Simulator.runStatic` with observation noise, and the
  * per-stage / per-query records come back as a Dataset.
  */
object TraceGen {

  /** One simulated run: the query-level record plus parallel per-stage
    * arrays (exploded into subQ/QS samples by the trainer).
    */
  final case class RunResult(
      bench: String,
      template: Int,
      variant: Long,
      conf: Seq[Double], // unit-normalized 19-dim configuration
      wallSec: Double,
      analyticalSec: Double,
      ioMb: Double,
      stageIds: Seq[Int],
      stageAnalytical: Seq[Double],
      stageIo: Seq[Double],
      stageSiblings: Seq[Int],
      stageSiblingWork: Seq[Double],
      stageAlgo: Seq[Int]) // JoinAlgo.code

  /** Number of templates in a benchmark. */
  def numTemplates(bench: String): Int = bench match {
    case "tpch"  => TpchLite.templates.size
    case "tpcds" => TpcdsLite.numQueries
    case other   => throw new IllegalArgumentException(s"unknown benchmark $other")
  }

  /** Deterministically regenerate the graph for a trace row. */
  def graphOf(bench: String, template: Int, variant: Long): QueryGraph = bench match {
    case "tpch"  => TpchLite.variant(template, variant)
    case "tpcds" => TpcdsLite.variant(template, variant)
    case other   => throw new IllegalArgumentException(s"unknown benchmark $other")
  }

  /** Run `nRuns` sampled (query, configuration) pairs through the simulator
    * on the Spark cluster and return their trace records.
    */
  def traces(
      spark: SparkSession,
      bench: String,
      nRuns: Int,
      seed: Long,
      spec: ClusterSpec = ClusterSpec.default): Dataset[RunResult] = {
    import spark.implicits._
    val nT = numTemplates(bench)
    val confs = Sampling.latinHypercube(nRuns, SparkParams.dAll, seed)
    val confsB = spark.sparkContext.broadcast(confs)

    spark.range(nRuns).as[Long].map { i =>
      val idx = i.toInt
      val template = idx % nT
      val variant = 1L + idx / nT
      val conf = confsB.value(idx)
      val g = graphOf(bench, template, variant)
      val sim = new Simulator(spec)
      val exec = sim.runStatic(g, Configuration.fromUnit(conf), noiseSeed = seed + idx)
      RunResult(
        bench = bench, template = template, variant = variant, conf = conf,
        wallSec = exec.wallSec, analyticalSec = exec.analyticalSec, ioMb = exec.ioMb,
        stageIds = exec.stages.map(_.subQId),
        stageAnalytical = exec.stages.map(_.analyticalSec),
        stageIo = exec.stages.map(_.ioMb),
        stageSiblings = exec.stages.map(_.siblingCount),
        stageSiblingWork = exec.stages.map(_.siblingWorkSec),
        stageAlgo = exec.stages.map(s => JoinAlgo.code(s.algo)))
    }
  }
}
