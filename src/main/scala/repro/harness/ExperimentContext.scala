package repro.harness

import scala.collection.concurrent.TrieMap
import org.apache.spark.sql.SparkSession
import repro.cluster.{ClusterSpec, QueryExec, Simulator}
import repro.model.{Models, QueryModels, Trainer}
import repro.moo.{Baselines, FineConfig, Hmooc, MooResult, Pareto}
import repro.params.Configuration
import repro.workload.{QueryGraph, TpcdsLite, TpchLite}

/** Shared, lazily built experiment state for the bench suites and jobs.
  *
  * Training the models and evaluating the 20k-sample batches per query are
  * the expensive parts of Tables 4 and 5; both tables (and the jobs) reuse
  * them through this cache, exactly as the paper's experiments reuse one
  * trained model per benchmark.
  */
object ExperimentContext {

  /** Everything Table 4/5 needs for one benchmark. */
  final class BenchContext(
      val bench: String,
      val models: Models,
      val report: Trainer.ModelReport,
      val queries: Vector[QueryGraph],
      val spec: ClusterSpec) {

    val sim = new Simulator(spec)

    private val qmCache = TrieMap.empty[String, QueryModels]
    def qm(g: QueryGraph): QueryModels =
      qmCache.getOrElseUpdate(g.name, new QueryModels(g, models, spec))

    /** Deterministic per-query noise seed shared by all methods' runs, so
      * method comparisons see the same "cluster weather".
      */
    def noiseSeed(g: QueryGraph): Long = math.abs(g.name.hashCode.toLong) % 100000L

    private val defaultCache = TrieMap.empty[String, QueryExec]
    def defaultExec(g: QueryGraph): QueryExec =
      defaultCache.getOrElseUpdate(g.name, sim.runStatic(g, Configuration.default, noiseSeed(g)))

    // MO-WS and SO-FW share one evaluated sample batch per query (identical
    // seed and count — the sharing is a pure compute saving).
    private val sampleCache =
      TrieMap.empty[String, (MooResult, Map[(Double, Double), Pareto.Sol[FineConfig]])]
    private def sampleSolves(g: QueryGraph) =
      sampleCache.getOrElseUpdate(g.name,
        Baselines.wsAndSoFw(qm(g), Calibration.table5Prefs, Calibration.wsSamples(bench), seed = 23L))

    def mows(g: QueryGraph): MooResult = sampleSolves(g)._1

    private val hmoocCache = TrieMap.empty[String, MooResult]
    def hmooc(g: QueryGraph): MooResult =
      hmoocCache.getOrElseUpdate(g.name, {
        // Larger plans get a leaner candidate budget so the solving time
        // stays within the paper's 1–2 s cloud constraint.
        val settings =
          if (g.numSubQs > 16)
            Hmooc.Settings(nInitC = 56, nClusters = 10, nPool = 128, nEnrich = 28)
          else Hmooc.Settings()
        Hmooc.solve(qm(g), settings)
      })

    def soFw(g: QueryGraph): Map[(Double, Double), Pareto.Sol[FineConfig]] = sampleSolves(g)._2
  }

  private val cache = TrieMap.empty[String, BenchContext]

  /** Queries of a benchmark, optionally capped for smoke runs. */
  def benchQueries(bench: String): Vector[QueryGraph] = {
    val all = bench match {
      case "tpch"  => TpchLite.queries
      case "tpcds" => TpcdsLite.queries
      case other   => throw new IllegalArgumentException(s"unknown benchmark $other")
    }
    val cap = Calibration.queryCap
    if (cap > 0) all.take(cap) else all
  }

  /** Build (or fetch) the context for `bench`, training models on demand. */
  def forBench(spark: SparkSession, bench: String): BenchContext =
    cache.getOrElseUpdate(bench, {
      val t0 = System.nanoTime()
      val (models, report) =
        Trainer.train(spark, bench, Calibration.trainRuns(bench), epochs = Calibration.epochs)
      Console.err.println(
        f"[ExperimentContext] trained $bench models in ${(System.nanoTime() - t0) / 1e9}%.1f s")
      new BenchContext(bench, models, report, benchQueries(bench), ClusterSpec.default)
    })
}
