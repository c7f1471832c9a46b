package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{ExperimentContext, Table3Harness, Table4Harness, Table5Harness}
import repro.workload.WorkloadGen

/** spark-submit entrypoint reproducing one evaluation table: 3 (model
  * performance), 4 (latency reduction under a strong speed preference,
  * followed by per-query lines) or 5 (adapting to preferences).
  * Usage: TableJob <3|4|5> [tpch|tpcds|both]
  */
object TableJob {

  /** The table number and benchmarks named by `args`; a bad table number or
    * an unknown benchmark fails here, before Spark starts.
    */
  def parse(args: Array[String]): (String, Seq[String]) = {
    val table = args.headOption.getOrElse("")
    require(Set("3", "4", "5").contains(table), "usage: TableJob <3|4|5> [tpch|tpcds|both]")
    val benches = args.lift(1).getOrElse("both") match {
      case "both" => Seq("tpch", "tpcds")
      case b      => Seq(b)
    }
    benches.foreach(WorkloadGen.templates)
    (table, benches)
  }

  def main(args: Array[String]): Unit = {
    val (table, benches) = parse(args)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-table$table")
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    benches.foreach { b =>
      table match {
        case "3" => println(Table3Harness.format(b, ExperimentContext.forBench(spark, b).report))
        case "4" =>
          val r = Table4Harness.run(spark, b)
          println(Table4Harness.format(r))
          r.perQuery.foreach { q =>
            println(f"  ${q.name}%-10s def=${q.defWall}%7.1f mows=${q.mowsWall}%7.1f(${q.mowsSolve}%5.2fs) " +
              f"h3=${q.h3Wall}%7.1f(${q.h3Solve}%5.2fs) h3+=${q.h3pWall}%7.1f(${q.h3pSolve}%5.2fs)")
          }
        case "5" => println(Table5Harness.format(Table5Harness.run(spark, b)))
      }
    }
    spark.stop()
  }
}
