package perfbench

import repro.moo.Hmooc
import repro.workload.QueryGraph

/** The benchmark's workloads. Sizes are passed to the program as call
  * arguments; no program default is read or changed.
  *
  * Inputs come from the workload seed, and never overlap the variants
  * 1..ceil(trainRuns / templates) the trainer sees. Warm-up uses variant
  * `2000000 + seed`. The compile workloads evaluate the canonical queries
  * (variant 0, the inputs of the paper's Table 4): over only 18-22 queries,
  * the seed's choice of variants would move the quality metrics more than
  * any bound could tolerate. The runtime workload evaluates variant
  * `1000000 + seed`, averaged over 510 deployments.
  */
sealed abstract class Workload(
    val name: String,
    val bench: String,
    /** Simulated runs the trainer collects, and its Adam epochs. */
    val trainRuns: Int,
    val epochs: Int) {

  /** The templates this workload evaluates, from all generated graphs. */
  def choose(graphs: Vector[(Int, QueryGraph)]): Vector[(Int, QueryGraph)] = graphs

  /** Templates whose warm-up variants run the workload's own pipeline in
    * each set-up: the first this many chosen.
    */
  def warmTemplates: Int

  def evalVariant(seed: Long): Long = 1000000L + seed
}

/** Compile-time tuning: HMOOC3 (and on TPC-H MO-WS) per query, then the
  * default, MO-WS, HMOOC3 and HMOOC3+ deployments of Table 4.
  */
final class CompileWorkload(
    name: String,
    bench: String,
    trainRuns: Int,
    epochs: Int,
    val hmooc: Hmooc.Settings,
    /** MO-WS sample count; 0 skips MO-WS. */
    val wsSamples: Int,
    /** Only plans with at least this many subQs... */
    minSubQs: Int,
    /** ...and of those at most this many, evenly spaced in subQ count. */
    maxTemplates: Int,
    val warmTemplates: Int) extends Workload(name, bench, trainRuns, epochs) {

  override def evalVariant(seed: Long): Long = 0L

  override def choose(graphs: Vector[(Int, QueryGraph)]): Vector[(Int, QueryGraph)] = {
    val big = graphs.filter(_._2.numSubQs >= minSubQs).sortBy { case (t, g) => (g.numSubQs, t) }
    val k = math.min(maxTemplates, big.size)
    val picked = if (k <= 1) big.take(k) else (0 until k).map(i => big(i * (big.size - 1) / (k - 1)))
    picked.toVector.sortBy(_._1)
  }
}

/** The AQE plugin alone: every template deployed from the Spark-default
  * configuration with runtime hooks, under each of the five Table 5
  * preferences.
  */
final class RuntimeWorkload(
    name: String,
    bench: String,
    trainRuns: Int,
    epochs: Int,
    val warmTemplates: Int) extends Workload(name, bench, trainRuns, epochs)

object Workload {
  /** The strong speed preference of Table 4. */
  val speedPref: (Double, Double) = (0.9, 0.1)

  /** The five latency/cost preferences of Table 5. */
  val table5Prefs: Vector[(Double, Double)] =
    Vector((0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0))

  val all: Vector[Workload] = Vector(
    new CompileWorkload("tpch-compile", "tpch", trainRuns = 660, epochs = 12,
      hmooc = Hmooc.Settings(), wsSamples = 1000, minSubQs = 0, maxTemplates = 22, warmTemplates = 2),
    // The lean settings the paper-table harness uses for plans above 16 subQs.
    new CompileWorkload("tpcds-large-plans", "tpcds", trainRuns = 204, epochs = 6,
      hmooc = Hmooc.Settings(nInitC = 56, nClusters = 10, nPool = 128, nEnrich = 28),
      wsSamples = 0, minSubQs = 17, maxTemplates = 18, warmTemplates = 2),
    new RuntimeWorkload("tpcds-runtime", "tpcds", trainRuns = 204, epochs = 6, warmTemplates = 20))

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  def warmVariant(seed: Long): Long = 2000000L + seed

  /** Noise seed shared by every deployment of one template's query. */
  def noiseSeed(seed: Long, template: Int): Long = (seed * 1000003L + template * 7919L) & 0x7fffffffL
}
