package repro.workload

import org.scalatest.funsuite.AnyFunSuite

/** Benchmark query-graph generators: structural validity of all 124 graphs. */
class WorkloadSpec extends AnyFunSuite {

  private def checkGraph(g: QueryGraph): Unit = {
    // Topological order and id consistency are enforced by QueryGraph's
    // constructor; check the workload-level invariants here.
    assert(g.numSubQs >= 2, s"${g.name}: too few subQs")
    g.subQs.foreach { s =>
      assert(s.trueInputBytes > 0 && s.trueInputRows > 0, s"${g.name}/${s.id}: empty input")
      assert(s.trueOutBytes > 0 && s.trueOutRows > 0, s"${g.name}/${s.id}: empty output")
      assert(s.cardErrFactor > 0, s"${g.name}/${s.id}: bad card error")
      assert(s.skew >= 1.0, s"${g.name}/${s.id}: skew below 1")
      if (s.isScan) assert(s.children.isEmpty && s.baseTable.nonEmpty)
      if (s.isJoin) assert(s.children.size == 2, s"${g.name}/${s.id}: join arity")
    }
    // Exactly one sink (the final aggregate).
    assert(g.sinks.size == 1, s"${g.name}: expected a single sink")
    assert(g.sinks.head.ops.contains(OpType.Aggregate))
    // A join stage's true input equals the sum of its children's outputs.
    g.subQs.filter(_.isJoin).foreach { j =>
      val kids = j.children.map(g.subQs)
      assert(j.trueInputBytes == kids.map(_.trueOutBytes).sum, s"${g.name}/${j.id}: input mismatch")
    }
  }

  WorkloadGen.queries("tpch").foreach { g =>
    test(s"${g.name} is a valid query graph") { checkGraph(g) }
  }

  test("TPC-H has 22 queries with subQ counts matching the table counts") {
    val qs = WorkloadGen.queries("tpch")
    assert(qs.size == 22)
    // t tables -> t scans + (t-1) joins + 1 aggregate = 2t subQs.
    assert(qs(0).numSubQs == 2)  // Q1: single table
    assert(qs(2).numSubQs == 6)  // Q3: 3 tables
    assert(qs(8).numSubQs == 12) // Q9: 6 tables (the Fig 3b example)
  }

  test("TPC-H scan sizes reflect SF=100 table sizes") {
    val q1 = WorkloadGen.queries("tpch")(0)
    val scan = q1.subQs.find(_.isScan).get
    assert(scan.baseTable.contains("lineitem"))
    assert(scan.trueInputBytes <= TpchLite.lineitem.bytes)
    assert(scan.trueInputBytes > TpchLite.lineitem.bytes / 100) // selectivity >= 2%
  }

  test("generation is deterministic in (template, variant)") {
    assert(TraceGen.graphOf("tpch", 2, 5) == TraceGen.graphOf("tpch", 2, 5))
    assert(TraceGen.graphOf("tpch", 2, 5) != TraceGen.graphOf("tpch", 2, 6))
    assert(TraceGen.graphOf("tpcds", 10, 1) == TraceGen.graphOf("tpcds", 10, 1))
  }

  test("parametric variants differ from the base query but keep its shape") {
    val base = WorkloadGen.queries("tpch")(8)
    val v = TraceGen.graphOf("tpch", 8, 3)
    assert(v.numSubQs == base.numSubQs)
    assert(v.subQs.map(_.trueOutBytes) != base.subQs.map(_.trueOutBytes))
  }

  WorkloadGen.queries("tpcds").zipWithIndex.collect { case (g, i) if i % 6 == 0 =>
    test(s"${g.name} is a valid query graph") { checkGraph(g) }
  }

  test("TPC-DS has 102 queries, all structurally valid") {
    val qs = WorkloadGen.queries("tpcds")
    assert(qs.size == 102)
    qs.foreach(checkGraph)
  }

  test("TPC-DS plans reach the paper's complexity (up to ~47 subQs)") {
    val sizes = WorkloadGen.queries("tpcds").map(_.numSubQs)
    assert(sizes.max >= 30, s"largest TPC-DS plan only ${sizes.max} subQs")
    assert(sizes.max <= 50)
    assert(sizes.min >= 3)
  }

  test("TPC-DS plans are larger than TPC-H plans on average") {
    val h = WorkloadGen.queries("tpch").map(_.numSubQs).sum.toDouble / 22
    val ds = WorkloadGen.queries("tpcds").map(_.numSubQs).sum.toDouble / 102
    assert(ds > h)
  }

  private val canonical = WorkloadGen.queries("tpch") ++ WorkloadGen.queries("tpcds")

  test("deep join outputs are systematically underestimated (CBO bias)") {
    // Per subQ, the number of joins beneath (and including) it.
    def joinDepth(g: QueryGraph): Vector[Int] = g.subQs.foldLeft(Vector.empty[Int]) { (d, s) =>
      d :+ (s.children.map(d).maxOption.getOrElse(0) + (if (s.isJoin) 1 else 0))
    }
    val deepJoins = canonical.flatMap(g => g.subQs.filter(s => s.isJoin && joinDepth(g)(s.id) >= 3))
    val underCount = deepJoins.count(_.cardErrFactor < 1.0)
    assert(underCount.toDouble / deepJoins.size > 0.6,
      s"only $underCount/${deepJoins.size} deep joins underestimated")
  }

  test("scan estimates are nearly exact") {
    val scans = WorkloadGen.queries("tpch").flatMap(_.subQs).filter(_.isScan)
    scans.foreach(s => assert(s.cardErrFactor > 0.7 && s.cardErrFactor < 1.4))
  }

  test("join outputs appear as build sides (the Fig 3b risk shape)") {
    val graphs = WorkloadGen.queries("tpch") ++ WorkloadGen.queries("tpcds")
    val risky = graphs.count { g =>
      g.subQs.exists { s =>
        s.isJoin && {
          val build = s.children.map(g.subQs).minBy(_.trueOutBytes)
          build.isJoin
        }
      }
    }
    assert(risky > 10, s"only $risky graphs have a join output as a build side")
  }

  test("estOut applies the cardinality-error factor") {
    val g = WorkloadGen.queries("tpch")(8)
    g.subQs.zip(g.estimated.subQs).foreach { case (s, t) =>
      assert(t.trueOutBytes == math.max(1L, (s.trueOutBytes * s.cardErrFactor).toLong))
      assert(t.trueOutRows == math.max(1L, (s.trueOutRows * s.cardErrFactor).toLong))
    }
  }

  test("the estimated graph holds the CBO's statistics, ignores the truth and is idempotent") {
    canonical.zipWithIndex.foreach { case (g, i) =>
      val e = g.estimated
      g.subQs.zip(e.subQs).foreach { case (s, t) =>
        // The CBO's estimate: the true output times the cardinality error.
        def est(x: Long) = math.max(1L, (x * s.cardErrFactor).toLong)
        assert((t.trueOutBytes, t.trueOutRows, t.cardErrFactor, t.skew) ==
          ((est(s.trueOutBytes), est(s.trueOutRows), 1.0, 1.0)), s"${g.name}/${s.id}")
        val kids = s.children.map(e.subQs)
        if (s.isScan) assert((t.trueInputBytes, t.trueInputRows) == ((s.trueInputBytes, s.trueInputRows)))
        else assert((t.trueInputBytes, t.trueInputRows) ==
          ((kids.map(_.trueOutBytes).sum, kids.map(_.trueOutRows).sum)), s"${g.name}/${s.id}")
      }
      assert(PerturbTruth(g, i).estimated == e, g.name)
      assert(e.estimated == e, g.name)
    }
  }

  test("levelOf is 0 for a scan and one above its deepest child otherwise, and levels group by it, on all 124 graphs") {
    canonical.foreach { g =>
      g.subQs.foreach { s =>
        val expected = if (s.isScan) 0 else s.children.map(g.levelOf).max + 1
        assert(g.levelOf(s.id) == expected, s"${g.name}/${s.id}")
      }
      g.levels.zipWithIndex.foreach { case (lv, l) =>
        assert(lv.map(_.id) == g.subQs.map(_.id).filter(g.levelOf(_) == l), s"${g.name}: level $l")
      }
      assert(g.levels.size == g.levelOf.max + 1, g.name)
    }
  }

  test("withOutputs(identity) returns the graph unchanged") {
    canonical.foreach(g => assert(g.withOutputs(identity) == g, g.name))
  }

  test("doubling one scan's output through withOutputs changes only its parent's input") {
    canonical.foreach { g =>
      g.subQs.filter(_.isScan).foreach { scan =>
        val h = g.withOutputs(s =>
          if (s.id == scan.id) s.copy(trueOutBytes = 2 * s.trueOutBytes, trueOutRows = 2 * s.trueOutRows) else s)
        val parent = g.parentOf(scan.id)
        g.subQs.zip(h.subQs).foreach { case (a, b) =>
          val grow = if (a.id == parent) (scan.trueOutBytes, scan.trueOutRows) else (0L, 0L)
          assert((b.trueInputBytes, b.trueInputRows) == ((a.trueInputBytes + grow._1, a.trueInputRows + grow._2)),
            s"${g.name}: doubling ${scan.id} moved ${a.id}")
        }
      }
    }
  }

  test("contention is each subQ's level siblings and their input MB, on all 124 graphs") {
    val graphs = canonical
    assert(graphs.size == 124)
    graphs.foreach { g =>
      assert(g.contention.size == g.numSubQs, g.name)
      g.levels.foreach { lv =>
        lv.foreach { s =>
          val others = lv.filter(_.id != s.id)
          val mb = others.map(_.trueInputBytes / 1048576.0).sum
          val (n, gammaMb) = g.contention(s.id)
          assert(n == lv.size - 1, s"${g.name}/${s.id}")
          assert(math.abs(gammaMb - mb) <= 1e-9 * math.max(1.0, mb), s"${g.name}/${s.id}")
        }
      }
      // The scans share level 0, so a scan's siblings are the other scans.
      val scans = g.subQs.filter(_.isScan)
      scans.foreach(s => assert(g.contention(s.id)._1 == scans.size - 1, s"${g.name}/${s.id}"))
    }
    assert(graphs.exists(g => g.subQs.exists(s => !s.isScan && g.contention(s.id)._1 > 0)))
  }

  test("QueryGraph rejects non-topological children") {
    intercept[IllegalArgumentException] {
      QueryGraph("bad", Vector(
        SubQ(0, Vector(OpType.Scan), Vector(1), Some("t"), 1, 1, 1, 1, 1.0, 1.0)))
    }
  }

  test("QueryGraph rejects ids out of position") {
    intercept[IllegalArgumentException] {
      QueryGraph("bad", Vector(
        SubQ(1, Vector(OpType.Scan), Vector.empty, Some("t"), 1, 1, 1, 1, 1.0, 1.0)))
    }
  }

  private def scan(id: Int) =
    SubQ(id, Vector(OpType.Scan), Vector.empty, Some("t"), 1, 1, 1, 1, 1.0, 1.0)

  test("QueryGraph rejects a scan stage that reads other stages") {
    val e = intercept[IllegalArgumentException] {
      QueryGraph("bad-scan", Vector(scan(0), scan(1).copy(children = Vector(0))))
    }
    assert(e.getMessage.contains("bad-scan"))
  }

  test("QueryGraph rejects a join stage without exactly two inputs") {
    val join = SubQ(1, Vector(OpType.Join), Vector(0), None, 1, 1, 1, 1, 1.0, 1.0)
    val e = intercept[IllegalArgumentException](QueryGraph("bad-join", Vector(scan(0), join)))
    assert(e.getMessage.contains("bad-join"))
  }

  test("QueryGraph rejects a stage that does not read what its children write") {
    val join = SubQ(2, Vector(OpType.Join), Vector(0, 1), None, 2, 2, 1, 1, 1.0, 1.0)
    QueryGraph("consistent", Vector(scan(0), scan(1), join))
    for (bad <- Seq(join.copy(trueInputBytes = 3), join.copy(trueInputRows = 1))) {
      val e = intercept[IllegalArgumentException](QueryGraph("bad-input", Vector(scan(0), scan(1), bad)))
      assert(e.getMessage.contains("bad-input") && e.getMessage.contains("subQ 2"), e.getMessage)
    }
  }

  test("totalScanBytes sums scan inputs only") {
    val g = WorkloadGen.queries("tpch")(2)
    assert(g.totalScanBytes == g.subQs.filter(_.isScan).map(_.trueInputBytes).sum)
  }
}
