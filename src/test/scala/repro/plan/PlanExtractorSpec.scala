package repro.plan

import repro.SparkSpec
import repro.workload.OpType

/** Catalyst logical plans → subQ DAGs, on real Spark 4.1. */
class PlanExtractorSpec extends SparkSpec {
  private lazy val tables = TpchQueries.registerTables(spark, sf = 0.002)

  // Force temp-view registration before parsing SQL against them.
  private def sqlDf(q: String) = { tables; spark.sql(q) }

  test("a single-table aggregate yields scan + aggregate stages (Q1 shape)") {
    val g = PlanExtractor.extract(sqlDf(TpchQueries.q1.sql), "q1")
    assert(g.subQs.count(_.isScan) == 1)
    assert(g.subQs.exists(_.ops.contains(OpType.Aggregate)))
    assert(g.numSubQs >= 2)
  }

  test("Q3 extracts 3 scans, 2 joins and an aggregate (Fig 1b)") {
    val g = PlanExtractor.extract(sqlDf(TpchQueries.q3.sql), "q3")
    assert(g.subQs.count(_.isScan) == 3)
    assert(g.subQs.count(_.isJoin) == 2)
    assert(g.subQs.count(_.ops.contains(OpType.Aggregate)) == 1)
  }

  test("Q5 extracts a five-way join tree") {
    val g = PlanExtractor.extract(sqlDf(TpchQueries.q5.sql), "q5")
    assert(g.subQs.count(_.isScan) == 5)
    assert(g.subQs.count(_.isJoin) == 4)
  }

  TpchQueries.all.foreach { q =>
    test(s"${q.name}: extraction produces a valid topological DAG") {
      val g = PlanExtractor.extract(sqlDf(q.sql), q.name)
      // QueryGraph's constructor enforces topological order; check stats.
      g.subQs.foreach { s =>
        assert(s.trueInputBytes > 0 && s.trueOutBytes > 0, s"${q.name}/${s.id}")
      }
      assert(g.subQs.count(_.isScan) == q.tables.size, q.name)
    }
  }

  test("scan stages carry Catalyst CBO size estimates (α_cbo)") {
    val g = PlanExtractor.extract(sqlDf(TpchQueries.q12.sql), "q12")
    val scans = g.subQs.filter(_.isScan)
    assert(scans.forall(_.trueInputBytes > 1000)) // non-trivial sizes
  }

  test("narrow operators fold into their child's stage (pipelining)") {
    tables("lineitem").createOrReplaceTempView("lineitem")
    tables("lineitem")
    val df = spark.sql("SELECT l_orderkey FROM lineitem WHERE l_quantity > 10")
    val g = PlanExtractor.extract(df, "narrow")
    // Filter + Project pipeline into the scan stage: exactly one subQ.
    assert(g.numSubQs == 1)
    assert(g.subQs.head.isScan)
  }

  test("a multi-input node other than a join or union is rejected, not modelled as a scan") {
    import spark.implicits._
    val a = Seq((1, "x"), (2, "y")).toDS()
    val b = Seq((1, "z")).toDS()
    val df = a.groupByKey(_._1).cogroup(b.groupByKey(_._1)) { (k, l, r) =>
      Iterator(k -> (l.size + r.size))
    }.toDF()
    val e = intercept[IllegalArgumentException](PlanExtractor.extract(df, "cogroup"))
    assert(e.getMessage.contains("CoGroup") && e.getMessage.contains("2 children"), e.getMessage)
  }

  test("join depth increases along the join chain") {
    val g = PlanExtractor.extract(sqlDf(TpchQueries.q5.sql), "q5-depth")
    val joins = g.subQs.filter(_.isJoin)
    assert(joins.map(_.joinDepth).max >= 2)
  }
}
