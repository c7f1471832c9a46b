package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.TestProp.forAllSeeds
import repro.cluster.Simulator
import repro.params.{Configuration, SparkParams, ThetaP}
import repro.workload.{JoinAlgo, OpType, TpchLite}

/** The GTN-substitute embedder and the feature assembly of §4.3. */
class EmbedderFeaturesSpec extends AnyFunSuite {
  private val emb = new GraphEmbedder()
  private val g = TpchLite.queries(2)
  private val conf = Configuration.default
  private val unit = Features.unitAll(conf.toVector)

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

  test("unitAll maps the default configuration into [0,1]^19") {
    assert(unit.length == SparkParams.dAll)
    assert(unit.forall(x => x >= 0.0 && x <= 1.0))
  }

  test("assemble concatenates embedding, non-decision and θ blocks") {
    val nd = Features.NonDecision(100, 1000, 50, 500, 0.5, 2, 10)
    val x = Features.assemble(Array(1.0, 2.0), nd, Array(9.0))
    assert(x.length == 2 + Features.ndDim + 1)
    assert(x(0) == 1.0 && x(1) == 2.0 && x.last == 9.0)
  }

  test("dropThetaP removes exactly the 9 θp coordinates") {
    val dropped = Features.dropThetaP(unit)
    assert(dropped.length == SparkParams.dC + SparkParams.dS)
    assert(dropped.take(SparkParams.dC).toSeq == unit.take(SparkParams.dC).toSeq)
    assert(dropped.drop(SparkParams.dC).toSeq == unit.drop(SparkParams.dC + SparkParams.dP).toSeq)
  }

  test("ruleAlgoCode matches the parametric join-selection rule") {
    // Default θp: s4 = 10MB, s3 = 0, s5 = 200.
    assert(Features.ruleAlgoCode(isJoin = true, buildMb = 5.0, unit) == 1)   // BHJ
    assert(Features.ruleAlgoCode(isJoin = true, buildMb = 5000.0, unit) == 3) // SMJ
    assert(Features.ruleAlgoCode(isJoin = false, buildMb = 5.0, unit) == 0)
  }

  test("ruleAlgoCode selects SHJ between the thresholds") {
    val p = conf.p.copy(broadcastThresholdMb = 0, shuffledHashThresholdMb = 64,
      shufflePartitions = 100)
    val u = Features.unitAll(Configuration(conf.c, p, conf.s).toVector)
    assert(Features.ruleAlgoCode(isJoin = true, buildMb = 1000.0, u) == 2) // 10MB/part <= 64
  }

  test("ruleAlgoCode agrees with the simulator's join-selection rule") {
    val sim = new Simulator()
    forAllSeeds(500) { rnd =>
      val u = Array.fill(SparkParams.dAll)(rnd.nextDouble())
      val p = ThetaP.fromUnit(u.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP).toVector)
      // Log-uniform sizes across all three regimes, plus both thresholds exactly.
      val b = rnd.nextInt(3) match {
        case 0 => math.exp(rnd.nextDouble() * math.log(1e6)) - 1.0
        case 1 => p.broadcastThresholdMb.toDouble
        case _ => p.shuffledHashThresholdMb.toDouble * math.max(1, p.shufflePartitions)
      }
      assert(Features.ruleAlgoCode(isJoin = true, b, u) == JoinAlgo.code(Some(sim.chooseAlgo(b, p))),
        s"build $b MB under $p")
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
    val parentOf = g.subQs.flatMap(s => s.children.map(_ -> s.id)).toMap
    val sink = g.sinks.head
    assert(!Features.writesShuffle(g, sink.id, parentOf, _ => 0.0, unit))
    val join = g.subQs.find(_.isJoin).get
    val child = join.children.head
    // Parent build tiny -> rule says BHJ -> child skips its write.
    assert(!Features.writesShuffle(g, child, parentOf, _ => 1.0, unit))
    // Parent build huge -> SMJ -> child writes.
    assert(Features.writesShuffle(g, child, parentOf, _ => 1e6, unit))
  }
}
