package repro.harness

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.cluster.{ClusterSpec, QueryExec, Simulator}
import repro.model.{Models, QueryModels, Trainer}
import repro.moo.{Baselines, FineConfig, Hmooc, MooResult, Pareto}
import repro.params.Configuration
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{QueryGraph, WorkloadGen}

/** Shared, lazily built experiment state for the bench suites and jobs.
  *
  * Training the models and evaluating the MO-WS/SO-FW sample batch of each
  * query (20k samples for TPC-H, 8k for TPC-DS) are the expensive parts of
  * Tables 4 and 5; both tables (and the jobs) reuse them through one
  * [[BenchContext]] per benchmark, exactly as the paper's experiments reuse
  * one trained model per benchmark.
  */
object ExperimentContext {

  /** Everything Tables 3–5 need for one benchmark: the trained models, their
    * report, and one [[QueryExperiment]] per canonical query.
    */
  final class BenchContext(
      val bench: String,
      val models: Models,
      val report: Trainer.ModelReport,
      spec: ClusterSpec) {

    val sim = new Simulator(spec)

    val queries: Vector[QueryExperiment] =
      WorkloadGen.queries(bench).map(new QueryExperiment(_, this))
  }

  /** One canonical query's experiment record: its models, the default run
    * and each method's recommendation, computed once and shared by the
    * tables.
    */
  final class QueryExperiment(val g: QueryGraph, ctx: BenchContext) {
    import ctx.sim

    lazy val qm: QueryModels = new QueryModels(g, ctx.models, sim.spec)

    /** Deterministic per-query noise seed shared by all methods' runs, so
      * method comparisons see the same "cluster weather".
      */
    val noiseSeed: Long = math.abs(g.name.hashCode.toLong) % 100000L

    /** Runs a query-level configuration (default, MO-WS, SO-FW). */
    def run(conf: Configuration): QueryExec = sim.runStatic(g, conf, noiseSeed)

    lazy val defaultExec: QueryExec = run(Configuration.default)

    // MO-WS and SO-FW share one evaluated sample batch (identical seed and
    // count — the sharing is a pure compute saving).
    private lazy val samples: (MooResult, Map[(Double, Double), Pareto.Sol[FineConfig]]) =
      Baselines.wsAndSoFw(qm, Calibration.table5Prefs, Calibration.wsSamples(ctx.bench), seed = 23L)

    def mows: MooResult = samples._1

    def soFw(pref: (Double, Double)): Pareto.Sol[FineConfig] = samples._2(pref)

    lazy val hmooc: MooResult =
      // Larger plans get a leaner candidate budget so the solving time
      // stays within the paper's 1–2 s cloud constraint.
      Hmooc.solve(qm,
        if (g.numSubQs > 16) Hmooc.Settings(nInitC = 56, nClusters = 10, nPool = 128, nEnrich = 28)
        else Hmooc.Settings())

    /** Deploys a fine-grained recommendation as HMOOC does on Spark (§6.3).
      * At submission (§C.2.1) `θc` builds the context and the `{θp}`/`{θs}`
      * copies are aggregated into single copies, under which the plan is
      * compiled on estimated statistics. With `runtimePref` the AQE plugin
      * then re-tunes `θp`/`θs` from true statistics under that preference
      * (HMOOC3+); without it plain AQE runs the submission copies (HMOOC3).
      * Returns the run and the plugin's time in its hooks (0 without it),
      * which Table 4 adds to the compile-time solving time.
      */
    def deploy(fc: FineConfig, runtimePref: Option[(Double, Double)]): (QueryExec, Double) = {
      val pAgg = ThetaAggregator.aggregateP(g, fc)
      val plan = sim.compilePlan(g, _ => pAgg)
      val opt = runtimePref.map(new RuntimeOptimizer(qm, fc.cU, _, pInit = pAgg))
      val exec = sim.execute(g, fc.thetaC, plan, pAgg, ThetaAggregator.aggregateS(g, fc), opt, noiseSeed)
      (exec, opt.fold(0.0)(_.optTimeSec))
    }
  }

  private val contexts = mutable.Map.empty[String, BenchContext]

  /** Build (or fetch) the context for `bench`, training models on demand. */
  def forBench(spark: SparkSession, bench: String): BenchContext = synchronized {
    contexts.getOrElseUpdate(bench, {
      val (models, report) =
        Trainer.train(spark, bench, Calibration.trainRuns(bench), epochs = Calibration.epochs)
      new BenchContext(bench, models, report, ClusterSpec.default)
    })
  }
}
