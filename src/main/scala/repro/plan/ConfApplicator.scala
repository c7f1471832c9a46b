package repro.plan

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.params.{ThetaP, ThetaS}
import repro.params.SparkParams.{BroadcastThresholdMb, ParamDef, thetaPDefs, thetaSDefs}

/** Applies a tuned `θp`/`θs` copy to a live `SparkSession` and runs a query
  * under it — the deployment path of the paper's recommendation on real
  * Spark. `θp` and `θs` are all `spark.sql.*` runtime confs, so they can be
  * set per query; `θc` (executor sizing) can only be set at context
  * construction and is therefore exercised in the simulator (see DESIGN.md).
  *
  * `withConf` restores the previous values afterwards, so tests can flip
  * configurations without leaking state into the shared session.
  */
object ConfApplicator {

  /** The conf assignments for one `θp` copy, keyed by each `ParamDef.name`.
    * Compile-time planning reads `spark.sql.autoBroadcastJoinThreshold`, so
    * it gets the same value as the adaptive broadcast threshold.
    */
  def thetaPConfs(p: ThetaP): Map[String, String] = {
    val confs = confsOf(thetaPDefs, p.toVector)
    confs + ("spark.sql.autoBroadcastJoinThreshold" -> confs(BroadcastThresholdMb.name))
  }

  /** The conf assignments for one `θs` copy, keyed by each `ParamDef.name`. */
  def thetaSConfs(s: ThetaS): Map[String, String] = confsOf(thetaSDefs, s.toVector)

  /** Values in Spark's units: bytes for byte confs, whole numbers for other
    * integral parameters, `Double.toString` otherwise.
    */
  private def confsOf(defs: Vector[ParamDef], values: Vector[Double]): Map[String, String] =
    defs.zip(values).map {
      case (d, v) if d.bytes    => d.name -> (v.toLong * 1048576L).toString
      case (d, v) if d.integral => d.name -> v.toLong.toString
      case (d, v)               => d.name -> v.toString
    }.toMap

  /** Run `body` with `confs` applied, restoring the previous values. */
  def withConf[T](spark: SparkSession, confs: Map[String, String])(body: => T): T = {
    val previous = confs.keys.map(k => k -> spark.conf.getOption(k)).toMap
    confs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally previous.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** Run `sql` under the tuned copies (AQE enabled) and return the result. */
  def runTuned(spark: SparkSession, sql: String, p: ThetaP, s: ThetaS): DataFrame =
    withConf(spark, thetaPConfs(p) ++ thetaSConfs(s) ++
      Map("spark.sql.adaptive.enabled" -> "true")) {
      val df = spark.sql(sql)
      df.collect() // materialize under the tuned confs (AQE finalizes here)
      df
    }

  /** The physical join operators of a materialized query, by name. */
  def joinOperators(df: DataFrame): Seq[String] = {
    val planString = df.queryExecution.executedPlan.toString
    Seq("BroadcastHashJoin", "ShuffledHashJoin", "SortMergeJoin")
      .filter(planString.contains)
  }
}
