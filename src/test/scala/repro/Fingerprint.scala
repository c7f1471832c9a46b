package repro

import java.security.MessageDigest
import repro.cluster.{ClusterSpec, QueryExec, RuntimeHooks, Simulator}
import repro.cluster.CostModel.SideStats
import repro.harness.Calibration
import repro.model.{GraphEmbedder, PlanFeatures, QueryModels, TestModels}
import repro.moo.{Baselines, FineConfig, Hmooc}
import repro.params.{Configuration, Sampling, SparkParams, ThetaP, ThetaS}
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{JoinAlgo, QueryGraph, SubQ, TraceGen, WorkloadGen}

/** Prints one MD5 digest per layer (workload, cluster, model, moo, runtime)
  * over that layer's deterministic outputs, so a refactor can show that it
  * left every output bit-identical: run it before and after the change and
  * compare. It reads only long-standing public names, so the same file runs
  * on older commits. Run with `sbt "Test/runMain repro.Fingerprint"`.
  *
  * It also prints how many executed stages of each kind the hooked runs
  * digest: scans (`Table`), other non-join stages (`Shuffle`), and joins by
  * compiled → runtime algorithm, so a reader sees which cost paths the
  * digests cover.
  */
object Fingerprint {

  private final class Digest {
    private val md = MessageDigest.getInstance("MD5")
    def add(xs: Any*): Unit = xs.foreach(x => md.update((show(x) + "\n").getBytes("UTF-8")))
    def hex: String = md.digest().map("%02x".format(_)).mkString
  }

  // Stage fields are listed one by one, so the digest does not depend on
  // which other fields `SubQ` carries; maps are printed in key order.
  private def show(x: Any): String = x match {
    case s: SubQ => show((s.id, s.ops, s.children, s.baseTable, s.trueInputBytes, s.trueInputRows,
      s.trueOutBytes, s.trueOutRows, s.cardErrFactor, s.skew))
    case a: Array[_] => a.map(show).mkString("[", ",", "]")
    case m: collection.Map[_, _] => m.toSeq.map { case (k, v) => show(k) + "->" + show(v) }.sorted.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(show).mkString("(", ",", ")")
    case p: Product if p.productArity > 0 => p.productIterator.map(show).mkString(p.productPrefix + "(", ",", ")")
    case other => String.valueOf(other)
  }

  /** Hooks whose answers are a fixed function of what they are asked, and
    * which record every request in `d`.
    */
  private final class ScriptedHooks(d: Digest, ps: Vector[ThetaP], ss: Vector[ThetaS]) extends RuntimeHooks {
    def onCollapsedPlan(g: QueryGraph, readyJoins: Vector[SubQ], trueOut: Map[Int, SideStats],
        current: ThetaP): ThetaP = {
      d.add(g.name, readyJoins, readyJoins.flatMap(_.children).map(trueOut), current)
      ps((readyJoins.map(_.id).sum + current.shufflePartitions) % ps.size)
    }
    def onQueryStage(sub: SubQ, inputMb: Double, algo: Option[JoinAlgo], current: ThetaS): ThetaS = {
      d.add(sub, inputMb, algo, current)
      ss((sub.id + inputMb.toLong % 7).toInt % ss.size)
    }
  }

  def main(args: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val sim = new Simulator()
    val spec = ClusterSpec.default
    val benches = Seq("tpch", "tpcds")
    val graphs = for (b <- benches; t <- 0 until TraceGen.numTemplates(b); v <- 0L to 3L)
      yield TraceGen.graphOf(b, t, v)
    val canonical = benches.flatMap(WorkloadGen.queries)
    val tpch = WorkloadGen.queries("tpch")
    val refinedLhs = (n: Int, dim: Int, seed: Long) =>
      Sampling.latinHypercube(n, dim, seed).map(Sampling.refine)
    val thetaPs = ThetaP.default +: refinedLhs(4, SparkParams.dP, 5L).map(ThetaP.fromUnit)
    val thetaSs = ThetaS.default +: refinedLhs(4, SparkParams.dS, 6L).map(ThetaS.fromUnit)
    val confs = Configuration.default +: refinedLhs(4, SparkParams.dAll, 7L).map(Configuration.fromUnit)
    val units = confs.map(c => (c.c.toUnit ++ c.p.toUnit ++ c.s.toUnit).toArray)
    val prefs = Vector((0.1, 0.9), (0.5, 0.5), (0.9, 0.1))
    val models = TestModels.untrained()
    val kinds = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    def hooked(g: QueryGraph, compiled: Map[Int, JoinAlgo], e: QueryExec): QueryExec = {
      e.stages.foreach { st =>
        val kind = st.algo.fold(if (g.subQs(st.subQId).isScan) "Table" else "Shuffle")(a =>
          s"Join ${compiled(st.subQId)}->$a")
        kinds(kind) += 1
      }
      e
    }

    val workload = new Digest
    for (g <- graphs; v <- Seq(g, g.estimated)) {
      workload.add(v.name, v.subQs, v.levels.map(_.map(_.id)), v.contention, v.buildMb,
        thetaPs.map(p => v.subQs.map(s => v.plannedAlgo(s.id, p))))
    }

    val cluster = new Digest
    for (g <- graphs; (c, k) <- confs.zipWithIndex) {
      cluster.add(sim.runStatic(g, c, noiseSeed = if (k == 0) -1L else k.toLong))
      if (k < 2) {
        val hooks = new ScriptedHooks(cluster, thetaPs, thetaSs)
        val compiled = sim.compilePlan(g, _ => c.p)
        cluster.add(hooked(g, compiled, sim.execute(g, c.c, compiled, c.p, c.s, Some(hooks))))
      }
    }

    val model = new Digest
    val emb = new GraphEmbedder(seed = 42)
    for (g <- canonical) {
      for (v <- Seq(g.estimated, g)) {
        val pf = new PlanFeatures(v, emb)
        for ((u, c) <- units.zip(confs)) {
          model.add(pf.lqp(u))
          v.subQs.foreach { s =>
            val (n, mb) = v.contention(s.id)
            model.add(pf.subQ(s.id, u), pf.qs(s.id, u, JoinAlgo.code(v.plannedAlgo(s.id, c.p)), n, mb))
          }
        }
      }
      val qm = new QueryModels(g, models, spec)
      for ((u, c) <- units.zip(confs)) {
        model.add(qm.queryObjectives(u, c.c))
        g.subQs.foreach { s =>
          val (n, mb) = g.contention(s.id)
          model.add(qm.predictSubQ(s.id, u), qm.predictSubQTrue(s.id, u),
            qm.predictQs(s.id, u, JoinAlgo.code(g.plannedAlgo(s.id, c.p)), n, mb),
            qm.subQObjectives(s.id, u, c.c))
        }
      }
    }

    val moo = new Digest
    val runtime = new Digest
    def deploy(qm: QueryModels, fc: FineConfig, pref: (Double, Double)): Unit = {
      val g = qm.g
      val (p, s) = (ThetaAggregator.aggregateP(g, fc), ThetaAggregator.aggregateS(g, fc))
      val hooks = new RuntimeOptimizer(qm, fc.cU, pref, pInit = p)
      val compiled = sim.compilePlan(g, _ => p)
      runtime.add(p, s, hooked(g, compiled, sim.execute(g, fc.thetaC, compiled, p, s, Some(hooks))))
    }
    for (g <- tpch) {
      val qm = new QueryModels(g, models, spec)
      val h = Hmooc.solve(qm, Hmooc.Settings(nInitC = 12, nClusters = 3, nPool = 16, nEnrich = 4))
      val (ws, soFw) = Baselines.wsAndSoFw(qm, Calibration.table5Prefs, nSamples = 200)
      moo.add(h.front, ws.front, soFw)
      for (pref <- prefs; front <- Seq(h, ws)) {
        val pick = front.recommend(pref)
        moo.add(pick)
        deploy(qm, pick.payload, pref)
      }
    }
    // The runtime plugin alone, from the default configuration.
    for (g <- canonical; pref <- prefs)
      deploy(new QueryModels(g, models, spec), FineConfig.uniform(g.numSubQs, units.head), pref)

    Seq("workload" -> workload, "cluster" -> cluster, "model" -> model, "moo" -> moo, "runtime" -> runtime)
      .foreach { case (name, d) => println(f"$name%-9s ${d.hex}") }
    println("hooked stages: " + kinds.toSeq.sorted.map { case (k, n) => s"$k $n" }.mkString(", "))
    println(f"(${(System.nanoTime() - t0) / 1e9}%.1f s)")
  }
}
