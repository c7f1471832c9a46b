package repro.workload

import scala.util.Random

/** Deterministic generator of benchmark query graphs.
  *
  * The paper evaluates on TPC-H (22 queries) and TPC-DS (102 queries) at
  * scale factor 100 and trains models on 50k *parametric* variants of those
  * templates. We regenerate the same structure synthetically: each template
  * fixes a set of base tables (with SF=100 sizes) and a join-tree topology;
  * a seed drives predicate selectivities, join selectivities, skew and the
  * CBO misestimation factors. `genQuery(template, variant)` is deterministic
  * in `(template, variant)` so traces, tests, and benches see identical
  * workloads.
  *
  * SubQ structure follows Spark's stage formation (§4.1): one scan stage per
  * base table, one stage per join (consuming two shuffled/broadcast inputs),
  * and a final aggregate stage — e.g. 3-table TPC-H Q3 yields 5 subQs + agg,
  * and 6-table Q9 yields the 12 subQs shown in Fig 3(b).
  */
object WorkloadGen {

  /** A base table with true SF=100 cardinalities. */
  final case class TableSpec(name: String, rows: Long, bytes: Long)

  /** A query template: tables per join-tree branch (branches are unioned). */
  final case class QueryTemplate(name: String, branches: Vector[Vector[TableSpec]])

  /** Cardinality-estimation error: the CBO is nearly exact on scans, while
    * join outputs drift log-normally with depth *and* carry the classic
    * independence-assumption bias — deep join cardinalities are
    * systematically underestimated (the root cause of the forced-broadcast
    * pathology in Fig 3b).
    */
  private def cardErr(rnd: Random, joinDepth: Int): Double = {
    val sigma = math.min(1.2, 0.05 + 0.3 * joinDepth)
    val bias  = -0.25 * math.min(4, joinDepth)
    math.exp(rnd.nextGaussian() * sigma + bias)
  }

  /** The query templates of benchmark `bench`; the one place that decides
    * which benchmark names exist.
    */
  def templates(bench: String): Vector[QueryTemplate] = bench match {
    case "tpch"  => TpchLite.templates
    case "tpcds" => TpcdsLite.templates
    case other   => throw new IllegalArgumentException(s"unknown benchmark $other")
  }

  /** The benchmark's canonical queries (variant 0 of each template). */
  def queries(bench: String): Vector[QueryGraph] = templates(bench).map(genQuery(_, 0))

  /** Generate the query graph for `variant` of `template`. */
  def genQuery(template: QueryTemplate, variant: Long): QueryGraph = {
    val rnd = new Random(template.name.hashCode.toLong * 1000003L + variant * 7919L)
    val subQs = Vector.newBuilder[SubQ]
    var nextId = 0

    def add(s: SubQ): SubQ = { subQs += s; nextId += 1; s }

    // Build one join-tree branch; returns its top subQ.
    def buildBranch(tables: Vector[TableSpec]): SubQ = {
      // Scan stages — predicate pushdown then projection.
      val scans = tables.map { t =>
        val sel  = math.pow(rnd.nextDouble(), 1.5).max(0.02) // filter selectivity
        val proj = 0.2 + rnd.nextDouble() * 0.6              // column pruning factor
        val inRows  = math.max(1L, (t.rows * sel).toLong)
        val inBytes = math.max(1L, (t.bytes * sel).toLong)
        add(SubQ(
          id = nextId,
          ops = Vector(OpType.Scan, OpType.Filter, OpType.Project, OpType.Exchange),
          children = Vector.empty,
          baseTable = Some(t.name),
          trueInputBytes = inBytes, trueInputRows = inRows,
          trueOutBytes = math.max(1L, (inBytes * proj).toLong), trueOutRows = inRows,
          cardErrFactor = cardErr(rnd, 0),
          skew = 1.0 + math.abs(rnd.nextGaussian()) * 0.2,
          joinDepth = 0))
      }

      // Join tree over the scans: mostly fact-chain ⋈ dimension steps, with
      // a substantial bushy fraction joining two intermediate results — the
      // shape where a *join output* (with its misestimated cardinality)
      // becomes the build side of a later join, as in TPC-H Q9 (Fig 3b).
      var pool = scans.sortBy(-_.trueOutBytes)
      while (pool.size > 1) {
        val (left, right) =
          if (pool.size > 2 && rnd.nextDouble() < 0.40) {
            val i = rnd.nextInt(pool.size)
            val j = (i + 1 + rnd.nextInt(pool.size - 1)) % pool.size
            (pool(i), pool(j))
          } else (pool.head, pool(1 + rnd.nextInt(pool.size - 1)))
        pool = pool.filterNot(s => s.id == left.id || s.id == right.id)
        val depth = math.max(left.joinDepth, right.joinDepth) + 1
        // Join output ~ probe-side rows scaled by join selectivity.
        val sel      = 0.25 + rnd.nextDouble() * 1.1
        val outRows  = math.max(1L, (math.max(left.trueOutRows, right.trueOutRows) * sel).toLong)
        val widthL   = left.trueOutBytes.toDouble / math.max(1L, left.trueOutRows)
        val widthR   = right.trueOutBytes.toDouble / math.max(1L, right.trueOutRows)
        val outBytes = math.max(1L, (outRows * (widthL + widthR) * 0.7).toLong)
        val joined = add(SubQ(
          id = nextId,
          ops = Vector(OpType.Join, OpType.Project, OpType.Exchange),
          children = Vector(left.id, right.id),
          baseTable = None,
          trueInputBytes = left.trueOutBytes + right.trueOutBytes,
          trueInputRows = left.trueOutRows + right.trueOutRows,
          trueOutBytes = outBytes, trueOutRows = outRows,
          cardErrFactor = cardErr(rnd, depth),
          skew = 1.0 + math.abs(rnd.nextGaussian()) * (if (rnd.nextDouble() < 0.15) 2.5 else 0.5),
          joinDepth = depth))
        pool = joined +: pool
      }
      pool.head
    }

    val tops = template.branches.map(buildBranch)

    // Union branches (if several), then aggregate.
    val preAgg =
      if (tops.size == 1) tops.head
      else add(SubQ(
        id = nextId,
        ops = Vector(OpType.Union, OpType.Exchange),
        children = tops.map(_.id),
        baseTable = None,
        trueInputBytes = tops.map(_.trueOutBytes).sum,
        trueInputRows = tops.map(_.trueOutRows).sum,
        trueOutBytes = tops.map(_.trueOutBytes).sum,
        trueOutRows = tops.map(_.trueOutRows).sum,
        cardErrFactor = cardErr(rnd, tops.map(_.joinDepth).max),
        skew = 1.0 + math.abs(rnd.nextGaussian()) * 0.3,
        joinDepth = tops.map(_.joinDepth).max))

    val groupFactor = math.pow(10.0, -(1.0 + rnd.nextDouble() * 3.0)) // 1e-1 .. 1e-4
    val aggRows  = math.max(1L, (preAgg.trueOutRows * groupFactor).toLong)
    val aggBytes = math.max(1L,
      (preAgg.trueOutBytes.toDouble * aggRows / math.max(1L, preAgg.trueOutRows)).toLong)
    add(SubQ(
      id = nextId,
      ops = Vector(OpType.Aggregate, OpType.Sort),
      children = Vector(preAgg.id),
      baseTable = None,
      trueInputBytes = preAgg.trueOutBytes, trueInputRows = preAgg.trueOutRows,
      trueOutBytes = aggBytes, trueOutRows = aggRows,
      cardErrFactor = cardErr(rnd, preAgg.joinDepth),
      skew = 1.0 + math.abs(rnd.nextGaussian()) * 0.3,
      joinDepth = preAgg.joinDepth))

    QueryGraph(template.name + (if (variant == 0) "" else s"#$variant"), subQs.result())
  }
}
