package repro.workload

import scala.util.Random
import repro.workload.WorkloadGen.{QueryTemplate, TableSpec}

/** TPC-DS-lite: 102 query templates as query graphs.
  *
  * TPC-DS queries are snowflake joins over one or more fact tables, often
  * unioned across sales channels, with far larger plans than TPC-H (the
  * paper cites up to 47 subQs). We generate 102 templates deterministically:
  * each has 1–3 union branches, each branch joins a fact table with 2–11
  * dimensions drawn from the real TPC-DS schema at SF=100 sizes. Branch and
  * dimension counts are seeded per query index, so the distribution of plan
  * sizes (3..47 subQs, long tail of complex queries) matches the benchmark
  * shape the paper reports.
  */
object TpcdsLite {
  private val GB = 1L << 30
  private val MB = 1L << 20

  val storeSales:     TableSpec = TableSpec("store_sales",     288000000L, 38 * GB)
  val catalogSales:   TableSpec = TableSpec("catalog_sales",   144000000L, 20 * GB)
  val webSales:       TableSpec = TableSpec("web_sales",        72000000L, 10 * GB)
  val inventory:      TableSpec = TableSpec("inventory",       399000000L,  8 * GB)
  val storeReturns:   TableSpec = TableSpec("store_returns",    28800000L, (2.5 * GB).toLong)
  val catalogReturns: TableSpec = TableSpec("catalog_returns",  14400000L, (1.3 * GB).toLong)
  val webReturns:     TableSpec = TableSpec("web_returns",       7200000L, (0.6 * GB).toLong)

  val facts: Vector[TableSpec] = Vector(
    storeSales, catalogSales, webSales, inventory, storeReturns, catalogReturns, webReturns)

  val dims: Vector[TableSpec] = Vector(
    TableSpec("customer",               2000000L, 260 * MB),
    TableSpec("customer_address",       1000000L, 110 * MB),
    TableSpec("customer_demographics",  1920800L, 80 * MB),
    TableSpec("household_demographics",    7200L, 160L * 1024),
    TableSpec("item",                    204000L, 30 * MB),
    TableSpec("date_dim",                 73049L, 10 * MB),
    TableSpec("time_dim",                 86400L, 5 * MB),
    TableSpec("store",                      402L, 110L * 1024),
    TableSpec("warehouse",                   15L, 4L * 1024),
    TableSpec("promotion",                 1000L, 130L * 1024),
    TableSpec("ship_mode",                   20L, 2L * 1024),
    TableSpec("web_site",                    24L, 10L * 1024),
    TableSpec("web_page",                  2040L, 150L * 1024),
    TableSpec("call_center",                 30L, 10L * 1024),
    TableSpec("catalog_page",             20400L, 2 * MB),
    TableSpec("reason",                      55L, 2L * 1024),
    TableSpec("income_band",                 20L, 1L * 1024))

  /** Deterministic template for query index `i` (0-based). */
  private def template(i: Int): QueryTemplate = {
    val rnd = new Random(424242L + i * 1313L)
    // Branch-count distribution: mostly single-tree, a tail of channel unions.
    val branches = rnd.nextDouble() match {
      case d if d < 0.60 => 1
      case d if d < 0.85 => 2
      case _             => 3
    }
    // Keep total subQs <= 47: each branch of t tables contributes 2t-1 subQs
    // (t scans + t-1 joins), plus union + agg.
    val branchSpecs = Vector.fill(branches) {
      val t    = 2 + rnd.nextInt(if (branches == 1) 11 else 7) // tables per branch
      val fact = facts(rnd.nextInt(facts.size))
      val ds   = rnd.shuffle(dims).take(t - 1)
      fact +: ds
    }
    QueryTemplate(f"TPCDS-Q${i + 1}%d", branchSpecs)
  }

  val templates: Vector[QueryTemplate] = Vector.tabulate(102)(template)
}
