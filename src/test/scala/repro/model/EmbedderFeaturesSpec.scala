package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.Simulator
import repro.params.{Configuration, SparkParams}
import repro.workload.{JoinAlgo, WorkloadGen}

/** The GTN-substitute embedder and the featurizer of §4.3. */
class EmbedderFeaturesSpec extends AnyFunSuite {
  private val emb = new GraphEmbedder()
  private val g = WorkloadGen.queries("tpch")(2)
  private val conf = Configuration.default
  private val unit = (conf.c.toUnit ++ conf.p.toUnit ++ conf.s.toUnit).toArray

  test("embedding width is 2x the hidden dimension (mean ⊕ max pooling)") {
    assert(emb.outDim == 24)
    assert(emb.embedSubQ(g.subQs(0), 1e6, 1e9).length == emb.outDim)
  }

  test("embeddings are deterministic") {
    val a = emb.embedSubQ(g.subQs(0), 1e6, 1e9)
    val b = new GraphEmbedder().embedSubQ(g.subQs(0), 1e6, 1e9)
    assert(a.toSeq == b.toSeq)
  }

  test("embeddings are bounded by the tanh nonlinearity") {
    val e = emb.embedGraph(g, s => (s.trueInputRows.toDouble, s.trueInputBytes.toDouble))
    assert(e.forall(x => x >= -1.0 && x <= 1.0))
  }

  test("embeddings distinguish operator types") {
    val scan = g.subQs.find(_.isScan).get
    val join = g.subQs.find(_.isJoin).get
    val a = emb.embedSubQ(scan, 1e6, 1e9)
    val b = emb.embedSubQ(join, 1e6, 1e9)
    assert(a.toSeq != b.toSeq)
  }

  test("embeddings are sensitive to cardinalities") {
    val s = g.subQs(0)
    assert(emb.embedSubQ(s, 1e3, 1e6).toSeq != emb.embedSubQ(s, 1e9, 1e12).toSeq)
  }

  test("graph embedding differs from any single subQ embedding") {
    val whole = emb.embedGraph(g, s => (s.trueInputRows.toDouble, s.trueInputBytes.toDouble))
    g.subQs.foreach { s =>
      assert(whole.toSeq != emb.embedSubQ(s, s.trueInputRows.toDouble, s.trueInputBytes.toDouble).toSeq)
    }
  }

  test("embedDag rejects empty plans") {
    intercept[IllegalArgumentException](
      emb.embedDag(Vector.empty, Vector.empty, Vector.empty, Vector.empty))
  }

  // ---- feature assembly -------------------------------------------------

  test("toUnit maps the default configuration into [0,1]^19") {
    assert(unit.length == SparkParams.dAll)
    assert(unit.forall(x => x >= 0.0 && x <= 1.0))
    assert(Configuration.fromUnit(unit.toIndexedSeq) == conf)
  }

  private val features = new PlanFeatures(g.estimated, emb)
  private val runtime = new PlanFeatures(g, emb)
  private val join = g.subQs.find(_.isJoin).get

  test("assemble concatenates embedding, non-decision and θ blocks") {
    // A scan's compile-time input is its table, so every block is known here.
    val scan = g.subQs.find(_.isScan).get
    val (rows, bytes) = (scan.trueInputRows.toDouble, scan.trueInputBytes.toDouble)
    val expected = Array.concat(
      emb.embedSubQ(scan, rows, bytes),
      Features.nonDecision(bytes / 1048576.0, rows, scan.estOutBytes / 1048576.0,
        scan.estOutRows.toDouble, 0.0, 0.0, 0.0),
      unit)
    val x = features.subQ(scan.id, unit)
    assert(x.length == expected.length + Features.hintDim)
    assert(x.take(expected.length).toSeq == expected.toSeq)
  }

  test("the subQ views lay out embedding, non-decision, all 19 θ and the hints") {
    for (x <- Seq(features.subQ(join.id, unit), runtime.subQ(join.id, unit))) {
      assert(x.length == emb.outDim + Features.ndDim + SparkParams.dAll + Features.hintDim)
      assert(x.slice(emb.outDim + Features.ndDim, x.length - Features.hintDim).toSeq == unit.toSeq)
    }
    // Compile time sees CBO estimates and β = γ = 0; runtime sees the truth.
    val nd = features.subQ(join.id, unit).slice(emb.outDim, emb.outDim + Features.ndDim)
    assert(nd.drop(4).forall(_ == 0.0))
    assert(g.subQs.exists(s => features.subQ(s.id, unit).toSeq != runtime.subQ(s.id, unit).toSeq))
  }

  test("the QS view drops exactly the 9 θp coordinates and carries γ") {
    val x = runtime.qs(join.id, unit, 3, 2.0, 10.0)
    val theta = x.slice(emb.outDim + Features.ndDim, x.length - Features.hintDim)
    assert(x.length == emb.outDim + Features.ndDim + SparkParams.dC + SparkParams.dS + Features.hintDim)
    assert(theta.toSeq == (unit.take(SparkParams.dC) ++ unit.drop(SparkParams.dC + SparkParams.dP)).toSeq)
    assert(x(emb.outDim + 5) == 0.2)
    // Without contention, the QS prefix is the runtime subQ view's.
    val prefix = emb.outDim + Features.ndDim
    assert(runtime.qs(join.id, unit, 3, 0.0, 0.0).take(prefix).toSeq ==
      runtime.subQ(join.id, unit).take(prefix).toSeq)
  }

  test("the subQ views one-hot the join algorithm the simulator would plan") {
    val sim = new Simulator()
    for (u <- Seq(unit, Array.fill(SparkParams.dAll)(0.9), Array.fill(SparkParams.dAll)(0.1))) {
      val c = Configuration.fromUnit(u.toIndexedSeq)
      val compiled = sim.compilePlan(g, _ => c.p)
      g.subQs.foreach { s =>
        val oneHot = features.subQ(s.id, u).takeRight(Features.hintDim).take(3).toSeq
        assert(oneHot.indexOf(1.0) + 1 == JoinAlgo.code(compiled.get(s.id)), s"subQ ${s.id}")
      }
    }
  }

  test("hints have the documented width and bounded entries") {
    val h = Features.hints(3, isScan = false, writesShuffle = true, 1000.0, unit)
    assert(h.length == Features.hintDim)
    assert(h(2) == 1.0) // SMJ one-hot
    assert(h(7) == 1.0) // writes shuffle
    assert(h.forall(x => !x.isNaN && !x.isInfinite))
  }

  test("hints partition count follows the partition rules") {
    val hSmall = Features.hints(0, isScan = false, writesShuffle = true, 100.0, unit)
    val hBig   = Features.hints(0, isScan = false, writesShuffle = true, 100000.0, unit)
    assert(hBig(6) > hSmall(6)) // log partitions grows with input
  }

  test("writesShuffle: sinks never write, BHJ parents suppress writes") {
    val sink = g.sinks.head
    assert(!g.writesShuffle(sink.id, _ => None))
    val child = join.children.head
    assert(!g.writesShuffle(child, _ => Some(JoinAlgo.BHJ)))
    assert(g.writesShuffle(child, _ => Some(JoinAlgo.SMJ)))
    // The featurizer plans the parent with the rule: a zero broadcast
    // threshold (and SHJ off by default) makes it SMJ, so the child writes.
    val noBroadcast = (conf.c.toUnit ++ conf.p.copy(broadcastThresholdMb = 0).toUnit ++ conf.s.toUnit).toArray
    assert(features.subQ(child, noBroadcast).last == 1.0)
  }
}
