package repro.workload

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.cluster.{ClusterSpec, QueryExec, Simulator}
import repro.params.{Configuration, Sampling, SparkParams}

/** Training-trace collection (§6, "Workloads").
  *
  * The paper turns each benchmark query into a template, generates 50k
  * parametric queries, and runs each under one Latin-Hypercube-sampled
  * configuration to collect traces. We do the same against the simulator,
  * distributed over Spark: each run is a (template, variant, configuration)
  * triple executed by `Simulator.runStatic` with observation noise, and the
  * simulator's own run record is the trace.
  */
object TraceGen {

  /** One simulated run: its query, its unit-normalized 19-dim configuration
    * and the simulator's record (per-stage objectives included).
    */
  final case class Trace(template: Int, variant: Long, conf: Vector[Double], exec: QueryExec)

  /** Number of templates in a benchmark. */
  def numTemplates(bench: String): Int = WorkloadGen.templates(bench).size

  /** Deterministically regenerate the graph for a trace row. */
  def graphOf(bench: String, template: Int, variant: Long): QueryGraph =
    WorkloadGen.genQuery(WorkloadGen.templates(bench)(template), variant)

  /** Run `nRuns` sampled (query, configuration) pairs through the simulator
    * on the Spark cluster and return their traces, in run order.
    */
  def traces(
      spark: SparkSession,
      bench: String,
      nRuns: Int,
      seed: Long,
      spec: ClusterSpec = ClusterSpec.default): RDD[Trace] = {
    val nT = numTemplates(bench)
    val confs = Sampling.latinHypercube(nRuns, SparkParams.dAll, seed)
    val confsB = spark.sparkContext.broadcast(confs)

    spark.sparkContext.parallelize(0 until nRuns).map { idx =>
      val template = idx % nT
      val variant = 1L + idx / nT
      val conf = confsB.value(idx)
      val exec = new Simulator(spec).runStatic(
        graphOf(bench, template, variant), Configuration.fromUnit(conf), noiseSeed = seed + idx)
      Trace(template, variant, conf, exec)
    }
  }
}
