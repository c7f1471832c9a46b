package repro.workload

import repro.workload.WorkloadGen.{QueryTemplate, TableSpec}

/** TPC-H-lite: the 22 TPC-H query templates as query graphs.
  *
  * Table cardinalities are the true TPC-H SF=100 sizes; each template's base
  * tables match the real query's FROM clause, so join-tree sizes and subQ
  * counts (2·t per t-table query; Q9's 6 scans + 5 joins + agg = 12 subQs,
  * Fig 3(b)) mirror the benchmark the paper ran.
  */
object TpchLite {
  private val GB = 1L << 30

  val lineitem: TableSpec = TableSpec("lineitem", 600000000L, 74 * GB)
  val orders:   TableSpec = TableSpec("orders",   150000000L, 17 * GB)
  val partsupp: TableSpec = TableSpec("partsupp",  80000000L, 12 * GB)
  val part:     TableSpec = TableSpec("part",      20000000L, (2.4 * GB).toLong)
  val customer: TableSpec = TableSpec("customer",  15000000L, (2.4 * GB).toLong)
  val supplier: TableSpec = TableSpec("supplier",   1000000L, (0.14 * GB).toLong)
  val nation:   TableSpec = TableSpec("nation",          25L, 3000L)
  val region:   TableSpec = TableSpec("region",           5L, 1000L)

  val tables: Vector[TableSpec] =
    Vector(lineitem, orders, partsupp, part, customer, supplier, nation, region)

  /** FROM-clause tables of each of the 22 TPC-H queries. */
  private val queryTables: Vector[Vector[TableSpec]] = Vector(
    /* Q1  */ Vector(lineitem),
    /* Q2  */ Vector(part, supplier, partsupp, nation, region),
    /* Q3  */ Vector(customer, orders, lineitem),
    /* Q4  */ Vector(orders, lineitem),
    /* Q5  */ Vector(customer, orders, lineitem, supplier, nation, region),
    /* Q6  */ Vector(lineitem),
    /* Q7  */ Vector(supplier, lineitem, orders, customer, nation),
    /* Q8  */ Vector(part, supplier, lineitem, orders, customer, nation, region),
    /* Q9  */ Vector(part, supplier, lineitem, partsupp, orders, nation),
    /* Q10 */ Vector(customer, orders, lineitem, nation),
    /* Q11 */ Vector(partsupp, supplier, nation),
    /* Q12 */ Vector(orders, lineitem),
    /* Q13 */ Vector(customer, orders),
    /* Q14 */ Vector(lineitem, part),
    /* Q15 */ Vector(supplier, lineitem),
    /* Q16 */ Vector(partsupp, part, supplier),
    /* Q17 */ Vector(lineitem, part),
    /* Q18 */ Vector(customer, orders, lineitem),
    /* Q19 */ Vector(lineitem, part),
    /* Q20 */ Vector(supplier, nation, partsupp, part, lineitem),
    /* Q21 */ Vector(supplier, lineitem, orders, nation),
    /* Q22 */ Vector(customer, orders))

  val templates: Vector[QueryTemplate] =
    queryTables.zipWithIndex.map { case (ts, i) => QueryTemplate(s"TPCH-Q${i + 1}", Vector(ts)) }

  /** The 22 benchmark queries (variant 0 of each template). */
  def queries: Vector[QueryGraph] = templates.map(WorkloadGen.genQuery(_, 0))
}
