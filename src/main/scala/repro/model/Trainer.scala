package repro.model

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import repro.cluster.ClusterSpec
import repro.workload.{JoinAlgo, TraceGen}

/** Trains the subQ / QS / LQP models on simulator traces and reports the
  * Table 3 metrics on a held-out split.
  */
object Trainer {

  /** Metrics of one model target (one Table 3 row). */
  final case class TargetMetrics(latency: Metrics.Report, io: Metrics.Report, xputKps: Double)

  /** Metrics of the three targets of one benchmark. */
  final case class ModelReport(subQ: TargetMetrics, qs: TargetMetrics, lqp: TargetMetrics)

  private final case class Split(
      trainX: Array[Array[Double]], trainY: Array[Array[Double]],
      testX: Array[Array[Double]], testY: Array[Array[Double]])

  private def buildSplit(
      rows: Seq[(Array[Double], Array[Double], Int)]): Split = {
    val train = rows.filter(_._3 <= 7)
    val test  = rows.filter(_._3 == 9)
    Split(
      train.map(_._1).toArray, train.map(_._2).toArray,
      test.map(_._1).toArray, test.map(_._2).toArray)
  }

  private def target(latSec: Double, ioMb: Double): Array[Double] =
    Array(math.log(math.max(1e-5, latSec)), math.log(math.max(1e-5, ioMb)))

  private def evaluate(model: RegModel, s: Split): TargetMetrics = {
    val t0 = System.nanoTime()
    val preds = s.testX.map(model.predictLatIo)
    val elapsed = math.max(1e-9, (System.nanoTime() - t0) / 1e9)
    val latY = s.testY.map(y => math.exp(y(0)))
    val ioY  = s.testY.map(y => math.exp(y(1)))
    TargetMetrics(
      Metrics.report(latY, preds.map(_._1)),
      Metrics.report(ioY, preds.map(_._2)),
      xputKps = s.testX.length / elapsed / 1000.0)
  }

  /** Collect traces, featurize, train the three models, and report metrics.
    *
    * @param nRuns  number of (query, configuration) simulated runs
    * @param epochs Adam epochs per model
    */
  def train(
      spark: SparkSession,
      bench: String,
      nRuns: Int,
      seed: Long = 42L,
      epochs: Int = 25,
      spec: ClusterSpec = ClusterSpec.default): (Models, ModelReport) = {

    val runs = TraceGen.traces(spark, bench, nRuns, seed, spec).collect()
    val embedder = new GraphEmbedder(seed = seed)

    val subQRows = mutable.ArrayBuffer.empty[(Array[Double], Array[Double], Int)]
    val qsRows   = mutable.ArrayBuffer.empty[(Array[Double], Array[Double], Int)]
    val lqpRows  = mutable.ArrayBuffer.empty[(Array[Double], Array[Double], Int)]

    runs.foreach { run =>
      val g = TraceGen.graphOf(bench, run.template, run.variant)
      val compileTime = new PlanFeatures(g.estimated, embedder)
      val runtime = new PlanFeatures(g, embedder)
      val conf = run.conf.toArray
      val bucket = math.abs((run.template * 31L + run.variant * 17L).hashCode) % 10

      run.exec.stages.foreach { st =>
        val y = target(st.analyticalSec, st.ioMb)
        // subQ model: the estimated graph. QS model: the real graph, with
        // the stage's physical join algorithm and its measured contention.
        subQRows += ((compileTime.subQ(st.subQId, conf), y, bucket))
        qsRows += ((runtime.qs(st.subQId, conf, JoinAlgo.code(st.algo),
          st.siblingCount.toDouble, st.siblingWorkSec), y, bucket))
      }
      // LQP model: whole plan, end-to-end latency.
      lqpRows += ((runtime.lqp(conf), target(run.exec.wallSec, run.exec.ioMb), bucket))
    }

    val subQSplit = buildSplit(subQRows.toSeq)
    val qsSplit   = buildSplit(qsRows.toSeq)
    val lqpSplit  = buildSplit(lqpRows.toSeq)

    // Fit on z-scored log targets (RegModel un-scales at prediction time).
    def fit(split: Split, s: Long): RegModel = {
      val n = split.trainY.length
      val mean = Array.tabulate(2)(o => split.trainY.map(_(o)).sum / n)
      val std = Array.tabulate(2) { o =>
        math.max(1e-6, math.sqrt(split.trainY.map(y => {
          val d = y(o) - mean(o); d * d
        }).sum / n))
      }
      val scaled = split.trainY.map(y => Array((y(0) - mean(0)) / std(0), (y(1) - mean(1)) / std(1)))
      val mlp = new Mlp(Array(split.trainX.head.length, 128, 128, 2), s)
      mlp.train(split.trainX, scaled, epochs, lr = 2e-3)
      RegModel(mlp, mean, std)
    }

    val subQMlp = fit(subQSplit, seed + 1)
    val qsMlp   = fit(qsSplit, seed + 2)
    val lqpMlp  = fit(lqpSplit, seed + 3)

    val models = Models(embedder, subQMlp, qsMlp, lqpMlp)
    val report = ModelReport(
      evaluate(subQMlp, subQSplit), evaluate(qsMlp, qsSplit), evaluate(lqpMlp, lqpSplit))
    (models, report)
  }
}
