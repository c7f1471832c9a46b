package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.cluster.{ClusterSpec, QueryExec, Simulator}
import repro.model.{Models, QueryModels, Trainer}
import repro.moo.{Baselines, Hmooc, MooResult}
import repro.params.{Configuration, SparkParams, ThetaC, ThetaP, ThetaS}
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{QueryGraph, TraceGen}

/** What one query of the measured loop produced. Walls and costs of
  * deployments a workload does not run are NaN.
  */
final case class Outcome(
    template: Int,
    pref: (Double, Double),
    /** Optimizer time on the query's path: model set-up, solve, WUN pick,
      * aggregation and plan compilation before submission, plus the
      * runtime optimizer's construction and hook calls during execution.
      */
    optSec: Double,
    solveSec: Double,
    mowsSec: Double,
    defWall: Double, defCost: Double,
    tunedWall: Double, tunedCost: Double,
    h3Wall: Double, h3Cost: Double,
    mowsWall: Double, mowsCost: Double,
    frontSize: Int,
    hybrid: QueryExec,
    solveAllocMb: Double,
    deployAllocMb: Double)

object Main {

  final case class Args(
      workload: Workload, seed: Long, seconds: Int, trace: Boolean,
      out: Path, header: Map[String, String])

  private def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${need("workload")}; " +
        s"known: ${Workload.all.map(_.name).mkString(", ")}"))
    Args(w, need("seed").toLong, need("seconds").toInt, need("trace") == "1", Paths.get(need("out")),
      kv.collect { case (k, v) if k.startsWith("h.") => k.drop(2) -> v })
  }

  def main(args: Array[String]): Unit = {
    val a = parse(args)
    val code = new Bench(a).run()
    sys.exit(code)
  }
}

final class Bench(a: Main.Args) {
  private val w = a.workload
  private val tr = new Tracer(a.trace)
  private val checks = new Checks
  private val hooks = new HookLog
  private val spec = ClusterSpec.default
  private val sim = new Simulator(spec)
  private val cores = math.max(1, math.min(2, Runtime.getRuntime.availableProcessors))

  private var spark: SparkSession = _
  private var evalGraphs: Vector[(Int, QueryGraph)] = Vector.empty
  private var warmGraphs: Vector[(Int, QueryGraph)] = Vector.empty

  /** Per-layer samples gathered in the traced run, by metric name. */
  private val layer = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  private def sample(k: String, v: Double): Unit = layer.getOrElseUpdate(k, ArrayBuffer.empty) += v

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[T](body: => T): (T, Double) = { val t0 = System.nanoTime(); val r = body; (r, secs(t0)) }

  // ---- set-up ------------------------------------------------------------

  private def startSpark(): SparkSession = {
    if (spark != null) spark.stop()
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def generate(variant: Long): Vector[(Int, QueryGraph)] =
    w.choose((0 until TraceGen.numTemplates(w.bench))
      .map(t => t -> tr.span("workload.gen")(TraceGen.graphOf(w.bench, t, variant))).toVector)

  /** A fresh Spark session and every graph the run uses. */
  private def startUp(): Unit = {
    spark = startSpark()
    evalGraphs = generate(w.evalVariant(a.seed))
    warmGraphs = generate(Workload.warmVariant(a.seed))
  }

  /** JIT warm-up on the warm-up variants, untraced: the workload's own
    * pipeline on its first templates. A compile workload deploys only a
    * few queries with hooks, so it also warms the hook path with
    * runtime-only deployments of every template.
    */
  private def warmUp(models: Models): Unit = {
    val traced = tr.enabled
    tr.enabled = false
    try {
      round(models, warmGraphs.take(w.warmTemplates)).foreach(attempt)
      if (w.isInstanceOf[CompileWorkload])
        for ((t, g) <- warmGraphs; qm = new QueryModels(g, models, spec); p <- Workload.table5Prefs)
          attempt(() => runtimeQuery(qm, t, p, Workload.noiseSeed(a.seed, t)))
    } finally tr.enabled = traced
  }

  // ---- one query ---------------------------------------------------------

  private def allocMb(b0: Long): Double = (Jvm.allocatedBytes - b0) / 1048576.0

  private def deployChecked(what: String, g: QueryGraph, e: QueryExec): QueryExec = {
    checks.deployment(what, g, e); e
  }

  private def compileQuery(cw: CompileWorkload, models: Models, t: Int, g: QueryGraph, noise: Long): Outcome = {
    val pref = Workload.speedPref
    val t0 = System.nanoTime()
    val qm = tr.span("model.qm_build")(new QueryModels(g, models, spec))
    val b0 = Jvm.allocatedBytes
    val (h3, solveSec) = timed(tr.span("moo.hmooc_solve")(Hmooc.solve(qm, cw.hmooc)))
    val solveAlloc = allocMb(b0)
    val pick = tr.span("moo.wun")(h3.recommend(pref))
    val fc = pick.payload
    val pAgg = tr.span("runtime.aggregate")(ThetaAggregator.aggregateP(g, fc))
    val sAgg = tr.span("runtime.aggregate")(ThetaAggregator.aggregateS(g, fc))
    val compiled = tr.span("cluster.compile_plan")(sim.compilePlan(g, _ => pAgg))
    val submitSec = secs(t0)

    val (opt, ctorSec) = timed(new RuntimeOptimizer(qm, fc.cU, pref, pInit = pAgg))
    val th = new TimedHooks(opt, tr, checks, hooks)
    val b1 = Jvm.allocatedBytes
    val h3p = deployChecked("HMOOC3+ deployment", g,
      tr.span("cluster.execute")(sim.execute(g, fc.thetaC, compiled, pAgg, sAgg, Some(th), noise)))
    val deployAlloc = allocMb(b1)
    val optSec = submitSec + ctorSec + th.ns / 1e9

    checks.front("HMOOC3 front", h3)
    checks.pick("HMOOC3 WUN pick", h3, pick)

    val h3Exec = deployChecked("HMOOC3 deployment", g,
      tr.span("cluster.execute")(sim.execute(g, fc.thetaC, compiled, pAgg, sAgg, None, noise)))
    val defExec = deployChecked("default deployment", g,
      tr.span("cluster.execute")(sim.runStatic(g, Configuration.default, noise)))

    val (mowsSec, mowsWall, mowsCost) =
      if (cw.wsSamples == 0) (Double.NaN, Double.NaN, Double.NaN)
      else {
        val (mows, sec) = timed(tr.span("moo.mows_solve")(
          Baselines.wsAndSoFw(qm, Vector(pref), cw.wsSamples, nWeights = 11, seed = 23L)._1))
        val mp = tr.span("moo.wun")(mows.recommend(pref))
        checks.front("MO-WS front", mows)
        checks.pick("MO-WS WUN pick", mows, mp)
        val e = deployChecked("MO-WS deployment", g,
          tr.span("cluster.execute")(sim.runStatic(g, mp.payload.asQueryLevel, noise)))
        (sec, e.wallSec, e.costUsd)
      }

    if (tr.enabled) pendingReplay = () => replayCompile(cw, qm, h3)
    Outcome(t, pref, optSec, solveSec, mowsSec,
      defExec.wallSec, defExec.costUsd, h3p.wallSec, h3p.costUsd,
      h3Exec.wallSec, h3Exec.costUsd, mowsWall, mowsCost,
      h3.front.size, h3p, solveAlloc, deployAlloc)
  }

  private val defaultCU: Array[Double] =
    SparkParams.thetaCDefs.zip(ThetaC.default.toVector).map { case (d, v) => d.toUnit(v) }.toArray

  private def runtimeQuery(qm: QueryModels, t: Int, pref: (Double, Double), noise: Long): Outcome = {
    val g = qm.g
    val defExec = deployChecked("default deployment", g,
      tr.span("cluster.execute")(sim.runStatic(g, Configuration.default, noise)))
    val t0 = System.nanoTime()
    val opt = new RuntimeOptimizer(qm, defaultCU, pref, pInit = ThetaP.default)
    val ctorSec = secs(t0)
    val th = new TimedHooks(opt, tr, checks, hooks)
    val compiled = tr.span("cluster.compile_plan")(sim.compilePlan(g, _ => ThetaP.default))
    val b1 = Jvm.allocatedBytes
    val e = deployChecked("runtime-tuned deployment", g, tr.span("cluster.execute")(
      sim.execute(g, ThetaC.default, compiled, ThetaP.default, ThetaS.default, Some(th), noise)))
    val deployAlloc = allocMb(b1)
    if (tr.enabled) pendingReplay = () => replayModel(qm)
    Outcome(t, pref, ctorSec + th.ns / 1e9, Double.NaN, Double.NaN,
      defExec.wallSec, defExec.costUsd, e.wallSec, e.costUsd,
      Double.NaN, Double.NaN, Double.NaN, Double.NaN, 0, e, Double.NaN, deployAlloc)
  }

  /** Run one query; one that throws counts as a failed operation. */
  private def attempt(item: () => Outcome): Option[Outcome] =
    try Some(item())
    catch { case scala.util.control.NonFatal(e) => checks.threw("query", e); None }

  /** The queries of one round, in order, as thunks over trained models. */
  private def round(models: Models, graphs: Vector[(Int, QueryGraph)]): Vector[() => Outcome] = w match {
    case cw: CompileWorkload =>
      graphs.map { case (t, g) => () => compileQuery(cw, models, t, g, Workload.noiseSeed(a.seed, t)) }
    case _: RuntimeWorkload =>
      // The plugin's models for a template are built once per run, outside
      // the loop; the timed path is the deployment with its hooks.
      graphs.flatMap { case (t, g) =>
        val qm = new QueryModels(g, models, spec)
        Workload.table5Prefs.map(p => () => runtimeQuery(qm, t, p, Workload.noiseSeed(a.seed, t)))
      }
  }

  // ---- layer replays (traced run only) -----------------------------------

  /** Replays of the last traced query, run after its timing ends. */
  private var pendingReplay: () => Unit = () => ()

  private val replayConfigs: Vector[Array[Double]] =
    repro.params.Sampling.latinHypercube(16, SparkParams.dAll, 5L)
      .map(u => repro.params.Sampling.refine(u).toArray)

  /** Receives every replayed result, so the JIT cannot drop the calls. */
  @volatile private var replaySink = 0.0

  /** Microseconds per call, for a `body` that makes `n` calls. */
  private def perCallUs(n: Int)(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e3 / math.max(1, n)
  }

  private def replayModel(qm: QueryModels): Unit = {
    val g = qm.g; val m = qm.m; val n = replayConfigs.size * m
    val mlp = qm.models.subQ
    val x = Array.tabulate(mlp.mlp.sizes(0))(j => (j % 7) / 7.0)
    var sink = 0.0
    sample("model.mlp_forward_us", perCallUs(n) { for (_ <- 0 until n) sink += mlp.predictLatIo(x)._1 })
    sample("model.predict_subq_us", perCallUs(n) {
      replayConfigs.foreach(u => (0 until m).foreach(i => sink += qm.predictSubQ(i, u)._1))
    })
    sample("model.predict_subq_true_us", perCallUs(n) {
      replayConfigs.foreach(u => (0 until m).foreach(i => sink += qm.predictSubQTrue(i, u)._1))
    })
    sample("model.predict_qs_us", perCallUs(n) {
      replayConfigs.foreach(u => (0 until m).foreach(i => sink += qm.predictQs(i, u, 3, 0.0, 0.0)._1))
    })
    sample("model.hints_us", perCallUs(n) {
      replayConfigs.foreach(u => (0 until m).foreach { i =>
        val s = g.subQs(i)
        sink += repro.model.Features.hints(3, s.isScan, writesShuffle = true, 100.0, u)(0)
      })
    })
    sample("model.embed_subq_us", perCallUs(m) {
      g.subQs.foreach(s => sink += qm.models.embedder.embedSubQ(s, s.trueInputRows, s.trueInputBytes)(0))
    })
    sample("model.query_objectives_us", perCallUs(replayConfigs.size) {
      replayConfigs.foreach(u => sink += qm.queryObjectives(u, ThetaC.fromUnit(u.take(SparkParams.dC).toVector))._1)
    })
    replaySink += sink
  }

  private def replayCompile(cw: CompileWorkload, qm: QueryModels, r: MooResult): Unit = {
    import repro.params.Sampling
    val s = cw.hmooc
    val dPs = SparkParams.dP + SparkParams.dS
    val (initC, lhsSec) = timed {
      Sampling.latinHypercube(s.nPool - 1, dPs, s.seed).map(u => Sampling.refine(u).toArray)
      Sampling.latinHypercube(s.nInitC, SparkParams.dC, s.seed + 1).map(u => Sampling.refine(u).toArray)
    }
    sample("moo.lhs_ms", lhsSec * 1e3)
    sample("moo.kmeans_ms", timed(Hmooc.kmeans(initC, s.nClusters, s.seed + 2))._2 * 1e3)
    sample("moo.crossover_ms", timed(Hmooc.crossover(initC, s.nEnrich, s.seed + 3))._2 * 1e3)
    sample("moo.skyline_us", timed(repro.moo.Pareto.skyline(r.front))._2 * 1e6)
    replayModel(qm)
  }

  // ---- the run -----------------------------------------------------------

  def run(): Int = {
    Jvm.watchHeap()
    val runStart = System.nanoTime()

    val (_, coldStartSec) = timed(startUp())
    // An untimed training on half the runs and half the epochs warms the
    // JVM and Spark; the reported time is the median of three at the
    // workload's budget, which all give the same models.
    val (_, trainWarmUpSec) = timed(
      Trainer.train(spark, w.bench, w.trainRuns / 2, epochs = math.max(1, w.epochs / 2), spec = spec))
    var trained: (Models, Trainer.ModelReport) = null
    val trainSecs = (1 to 3).map(_ => timed {
      trained = Trainer.train(spark, w.bench, w.trainRuns, epochs = w.epochs, spec = spec)
    }._2)
    val (models, report) = trained
    val trainSec = Stats.median(trainSecs)
    if (tr.enabled) {
      val (_, tg) = timed(tr.span("workload.tracegen")(
        TraceGen.traces(spark, w.bench, w.trainRuns, 42L, spec).collect()))
      sample("workload.tracegen_s", tg)
      sample("model.fit_s", trainSec - tg)
    }

    // Set-up, three times (session, graphs, warm-up); the median is the
    // reported set-up time.
    val setupSecs = (1 to 3).map(_ => timed { startUp(); warmUp(models) }._2)
    tr.enabled = false

    // The program does not use Spark after training; stopping it keeps its
    // background threads out of the measurement.
    spark.stop()

    val items = round(models, evalGraphs)
    hooks.reset()

    val gc0 = Jvm.gcMillis
    val out = ArrayBuffer.empty[Outcome]
    var overheadBase = 0.0; var overheadTraced = 0.0
    val rounds = ArrayBuffer.empty[Map[String, Double]]
    val t0 = System.nanoTime()
    if (!a.trace) {
      // Closed loop, one client, whole rounds so every round has the same
      // mix: the first always runs (the quality metrics come from it), and
      // another starts while it would end less than half a round late.
      var roundSec = 0.0
      while (roundSec == 0.0 || secs(t0) + roundSec / 2 <= a.seconds) {
        val r0 = System.nanoTime()
        val h0 = hooks.calls
        items.foreach(item => out ++= attempt(item))
        roundSec = secs(r0)
        rounds += Map("s" -> roundSec, "opt_s_mean" -> Stats.mean(out.takeRight(items.size).map(_.optSec).toSeq),
          "hook_us_trim_mean" -> Stats.trimmedMean(hooks.allUs.drop(h0)))
      }
    } else {
      // Each query runs untraced and traced, alternating which goes first;
      // the difference between the two is the tracing overhead. Layer
      // replays follow, outside both timings.
      var i = 0
      while (i == 0 || secs(t0) < a.seconds) {
        val item = items(i % items.size)
        def untraced(): Unit = overheadBase += timed(attempt(item))._2
        if (i % 2 == 0) untraced()
        tr.query = i
        val (o, sec) = timed { tr.enabled = true; try attempt(item) finally tr.enabled = false }
        overheadTraced += sec
        if (i % 2 == 1) untraced()
        pendingReplay(); pendingReplay = () => ()
        out ++= o; i += 1
      }
    }
    val loopSec = secs(t0)
    val gcMs = Jvm.gcMillis - gc0
    System.gc() // one last post-collection heap reading
    val first = out.take(items.size).toVector

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) endToEnd(setupSecs, trainSec, report, first, out.toVector, loopSec)
      else perLayer(report, out.toVector, gcMs, overheadTraced / overheadBase - 1.0)

    val failed = checks.failures.size
    checks.failures.take(20).foreach(f => Console.err.println(s"[perfbench] CHECK FAILED: $f"))
    val result = Json.obj(
      "correct" -> (failed == 0),
      "attempted" -> checks.attempted,
      "failed" -> failed,
      "metrics" -> Json.Raw(Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.Raw(Json.obj("value" -> v, "unit" -> u)) }: _*)))

    writeResultFile(result, setupSecs, coldStartSec, trainWarmUpSec, trainSecs, first, out.toVector, rounds.toSeq, loopSec,
      gcMs, secs(runStart))
    if (a.trace)
      tr.writeJsonLines(a.out.resolveSibling(a.out.getFileName.toString.replace(".json", ".spans.jsonl")))
    println(result)
    if (failed == 0) 0 else 1
  }

  // ---- metrics -----------------------------------------------------------

  private def ratio(xs: Seq[Outcome], num: Outcome => Double, den: Outcome => Double): Double =
    xs.map(num).sum / xs.map(den).sum

  private def endToEnd(
      setupSecs: Seq[Double], trainSec: Double, report: Trainer.ModelReport,
      first: Vector[Outcome], all: Vector[Outcome], loopSec: Double): Seq[(String, Double, String)] = {
    val opt = all.map(_.optSec)
    val hookUs = hooks.allUs
    Seq(
      ("setup_s", Stats.median(setupSecs), "s"),
      ("peak_heap_mb", Jvm.peakLiveMb, "MB"),
      ("train_s", trainSec, "s"),
      ("subq_lat_wmape", report.subQ.latency.wmape, "ratio"),
      ("opt_s.mean", Stats.mean(opt), "s"),
      ("hook_us.trim_mean", Stats.trimmedMean(hookUs), "us"),
      ("hook_us.p90", Stats.percentile(hookUs, 0.9), "us"),
      ("queries_per_s", all.size / loopSec, "1/s"),
      ("lat_ratio", ratio(first, _.tunedWall, _.defWall), "ratio"),
      ("cost_ratio", ratio(first, _.tunedCost, _.defCost), "ratio"))
  }

  private def perLayer(
      report: Trainer.ModelReport, traced: Vector[Outcome], gcMs: Long,
      overhead: Double): Seq[(String, Double, String)] = {
    def avg(k: String): Double = layer.get(k).fold(0.0)(b => Stats.mean(b.toSeq))
    val hybrid = traced.map(_.hybrid)
    val solved = traced.filter(o => !o.solveSec.isNaN)
    val lqp = hybrid.map(_.lqpRequestsSent).sum
    val qs = hybrid.map(_.qsRequestsSent).sum
    val naive = hybrid.map(e => e.lqpRequestsNaive + e.qsRequestsNaive).sum
    Seq(
      ("workload.gen_us", tr.meanUs("workload.gen"), "us"),
      ("workload.tracegen_s", avg("workload.tracegen_s"), "s"),
      ("model.fit_s", avg("model.fit_s"), "s"),
      ("model.mlp_forward_us", avg("model.mlp_forward_us"), "us"),
      ("model.predict_subq_us", avg("model.predict_subq_us"), "us"),
      ("model.hints_us", avg("model.hints_us"), "us"),
      ("model.query_objectives_us", avg("model.query_objectives_us"), "us"),
      ("model.qm_build_us", tr.meanUs("model.qm_build"), "us"),
      ("model.embed_subq_us", avg("model.embed_subq_us"), "us"),
      ("model.predict_subq_true_us", avg("model.predict_subq_true_us"), "us"),
      ("model.predict_qs_us", avg("model.predict_qs_us"), "us"),
      ("model.xput_kps", report.subQ.xputKps, "k/s"),
      ("moo.hmooc_solve_ms", tr.meanUs("moo.hmooc_solve") / 1e3, "ms"),
      ("moo.mows_solve_ms", tr.meanUs("moo.mows_solve") / 1e3, "ms"),
      ("moo.lhs_ms", avg("moo.lhs_ms"), "ms"),
      ("moo.kmeans_ms", avg("moo.kmeans_ms"), "ms"),
      ("moo.crossover_ms", avg("moo.crossover_ms"), "ms"),
      ("moo.skyline_us", avg("moo.skyline_us"), "us"),
      ("moo.wun_us", tr.meanUs("moo.wun"), "us"),
      ("moo.front_size", Stats.mean(solved.map(_.frontSize.toDouble)), "count"),
      ("runtime.lqp_hook_us", tr.meanUs("runtime.lqp_hook"), "us"),
      ("runtime.qs_hook_us", tr.meanUs("runtime.qs_hook"), "us"),
      ("runtime.changed_frac", hooks.changed.toDouble / math.max(1, hooks.calls), "ratio"),
      ("runtime.lqp_calls_per_query", lqp.toDouble / math.max(1, hybrid.size), "count"),
      ("runtime.qs_calls_per_query", qs.toDouble / math.max(1, hybrid.size), "count"),
      ("runtime.sent_frac", (lqp + qs).toDouble / math.max(1, naive), "ratio"),
      ("runtime.aggregate_us", tr.meanUs("runtime.aggregate"), "us"),
      ("cluster.compile_plan_us", tr.meanUs("cluster.compile_plan"), "us"),
      ("cluster.execute_self_us", tr.meanSelfUs("cluster.execute"), "us"),
      ("cluster.stages_per_query", Stats.mean(hybrid.map(_.stages.size.toDouble)), "count"),
      ("jvm.alloc_mb_per_solve", Stats.mean(solved.map(_.solveAllocMb)), "MB"),
      ("jvm.alloc_mb_per_deploy", Stats.mean(traced.map(_.deployAllocMb)), "MB"),
      ("jvm.gc_ms", gcMs.toDouble, "ms"),
      ("trace.overhead_frac", overhead, "ratio"))
  }

  // ---- result file -------------------------------------------------------

  private def writeResultFile(
      result: String, setupSecs: Seq[Double], coldStartSec: Double,
      trainWarmUpSec: Double, trainSecs: Seq[Double],
      first: Vector[Outcome], all: Vector[Outcome], rounds: Seq[Map[String, Double]], loopSec: Double,
      gcMs: Long, runSec: Double): Unit = {
    def finiteOnly(xs: Seq[Double]) = xs.filter(x => !x.isNaN)
    def dist(xs: Seq[Double]): Map[String, Any] =
      if (xs.isEmpty) Map("n" -> 0)
      else {
        val q = Stats.tailLevel(xs.size)
        Map("n" -> xs.size, "p50" -> Stats.median(xs), "mean" -> Stats.mean(xs),
          "tail_q" -> q, "tail" -> Stats.percentile(xs, q), "max" -> xs.max)
      }
    val hybrid = all.map(_.hybrid)
    val byPref = first.groupBy(_.pref).toSeq.sortBy(_._1).map { case (p, xs) =>
      Map("pref" -> p, "lat_ratio" -> ratio(xs, _.tunedWall, _.defWall),
        "cost_ratio" -> ratio(xs, _.tunedCost, _.defCost),
        "avg_lat_change" -> Stats.mean(xs.map(o => o.tunedWall / o.defWall - 1)),
        "avg_cost_change" -> Stats.mean(xs.map(o => o.tunedCost / o.defCost - 1)))
    }
    val compileOnly = first.filter(o => !o.h3Wall.isNaN)
    val mowsOnly = first.filter(o => !o.mowsWall.isNaN)
    val header = Map(
      "workload" -> w.name, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "spark_master" -> s"local[$cores]",
      "java" -> System.getProperty("java.vm.version"),
      "eval_variant" -> w.evalVariant(a.seed), "warmup_variant" -> Workload.warmVariant(a.seed),
      "train_runs" -> w.trainRuns, "train_epochs" -> w.epochs,
      "warmup" -> (s"each of 3 set-ups runs the workload on ${math.min(w.warmTemplates, warmGraphs.size)} " +
        "warm-up templates" + (if (w.isInstanceOf[CompileWorkload]) " and runtime-only deployments of all" else "")),
      "cold_start_s" -> coldStartSec, "setup_reps_s" -> setupSecs,
      "train_warmup_s" -> trainWarmUpSec, "train_reps_s" -> trainSecs,
      "queries_per_round" -> first.size, "queries_measured" -> all.size, "loop_s" -> loopSec,
      "rounds" -> rounds,
      "run_s" -> runSec) ++ a.header
    val counts = Map(
      "hook_calls" -> hooks.calls, "lqp_hook_calls" -> hooks.lqpNs.size, "qs_hook_calls" -> hooks.qsNs.size,
      "requests_sent" -> hybrid.map(e => e.lqpRequestsSent + e.qsRequestsSent).sum,
      "requests_naive" -> hybrid.map(e => e.lqpRequestsNaive + e.qsRequestsNaive).sum,
      "stages" -> hybrid.map(_.stages.size).sum,
      "front_size_mean" -> Stats.mean(all.filter(_.frontSize > 0).map(_.frontSize.toDouble)),
      "alloc_mb_per_solve" -> Stats.mean(finiteOnly(all.map(_.solveAllocMb))),
      "alloc_mb_per_deploy" -> Stats.mean(all.map(_.deployAllocMb)),
      "gc_ms" -> gcMs, "checks_attempted" -> checks.attempted, "checks_failed" -> checks.failures.size,
      "failed_frac" -> checks.failures.size.toDouble / math.max(1L, checks.attempted))
    val extra = Map(
      "opt_s" -> dist(all.map(_.optSec)),
      "hmooc_solve_s" -> dist(finiteOnly(all.map(_.solveSec))),
      "mows_solve_s" -> dist(finiteOnly(all.map(_.mowsSec))),
      "hook_us" -> dist(hooks.allUs),
      // NaN (rendered null) where the workload has no such deployment.
      "h3_lat_ratio" -> ratio(compileOnly, _.h3Wall, _.defWall),
      "h3_cost_ratio" -> ratio(compileOnly, _.h3Cost, _.defCost),
      "mows_lat_ratio" -> ratio(mowsOnly, _.mowsWall, _.defWall),
      "mows_cost_ratio" -> ratio(mowsOnly, _.mowsCost, _.defCost),
      "by_pref" -> byPref,
      "first_round" -> first.map(o => Map(
        "template" -> o.template, "pref" -> o.pref, "opt_s" -> o.optSec,
        "default_wall_s" -> o.defWall, "tuned_wall_s" -> o.tunedWall,
        "default_cost_usd" -> o.defCost, "tuned_cost_usd" -> o.tunedCost,
        "stages" -> o.hybrid.stages.size, "front_size" -> o.frontSize)),
      "failures" -> checks.failures.take(50))
    Files.createDirectories(a.out.toAbsolutePath.getParent)
    Files.writeString(a.out, Json.obj(
      "header" -> header, "counts" -> counts, "result" -> Json.Raw(result), "extra" -> extra) + "\n")
  }
}
