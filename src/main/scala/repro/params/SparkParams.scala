package repro.params

/** The 19-parameter mixed Spark tuning space of the paper (Tables 1 and 6).
  *
  * Parameters fall into three categories with different control points in
  * the query lifetime:
  *
  *   - `θc` (context, 8 params `k1..k8`): set once at query submission when
  *     the Spark context is initialized; govern resources and shuffle
  *     machinery for the whole query.
  *   - `θp` (logical-plan, 9 params `s1..s9`): drive the parametric
  *     logical→physical planning rules (join-algorithm thresholds, advisory
  *     partition size, shuffle partitions, skew handling, file splits); one
  *     copy per collapsed logical plan during AQE.
  *   - `θs` (query-stage, 2 params `s10,s11`): drive per-stage partition
  *     rebalance/coalesce rules; one copy per query stage.
  *
  * Each parameter has a bounded numeric domain; configurations are handled
  * both as typed case classes and as normalized `[0,1]^d` vectors for the
  * samplers and the learned models.
  */
object SparkParams {

  /** One tunable parameter with an inclusive numeric domain.
    *
    * @param name     the Spark conf key; `ConfApplicator` sets the θp/θs keys
    *                 on a live session, and the θc keys name the context
    *                 settings the simulator models
    * @param lo       domain lower bound
    * @param hi       domain upper bound
    * @param integral whether values are rounded to integers when decoded
    * @param bytes    whether the domain counts MB while Spark reads the conf
    *                 in bytes
    */
  final case class ParamDef(name: String, lo: Double, hi: Double, integral: Boolean, bytes: Boolean = false) {
    require(hi > lo, s"degenerate domain for $name")

    /** Clamp and (for integral params) round a raw value into the domain. */
    def clamp(v: Double): Double = {
      val c = math.min(hi, math.max(lo, v))
      if (integral) math.round(c).toDouble else c
    }

    /** Map a unit-interval coordinate to a domain value. NaN is rejected:
      * clamp would round it to 0 on an integral parameter.
      */
    def fromUnit(u: Double): Double = {
      require(!u.isNaN, s"NaN coordinate for $name")
      clamp(lo + (hi - lo) * math.min(1.0, math.max(0.0, u)))
    }

    /** Map a domain value back to its unit-interval coordinate. */
    def toUnit(v: Double): Double = (clamp(v) - lo) / (hi - lo)
  }

  // ---- θc: context parameters (k1..k8) ------------------------------------
  val ExecutorCores: ParamDef     = ParamDef("spark.executor.cores", 1, 8, integral = true)
  val ExecutorMemoryGb: ParamDef  = ParamDef("spark.executor.memory", 2, 32, integral = true)
  val ExecutorInstances: ParamDef = ParamDef("spark.executor.instances", 2, 24, integral = true)
  val DefaultParallelism: ParamDef = ParamDef("spark.default.parallelism", 8, 320, integral = true)
  val MaxSizeInFlightMb: ParamDef = ParamDef("spark.reducer.maxSizeInFlight", 8, 96, integral = true)
  val BypassMergeThreshold: ParamDef =
    ParamDef("spark.shuffle.sort.bypassMergeThreshold", 100, 800, integral = true)
  val ShuffleCompress: ParamDef   = ParamDef("spark.shuffle.compress", 0, 1, integral = true)
  val MemoryFraction: ParamDef    = ParamDef("spark.memory.fraction", 0.5, 0.75, integral = false)

  // ---- θp: logical-plan parameters (s1..s9) --------------------------------
  val AdvisoryPartitionMb: ParamDef =
    ParamDef("spark.sql.adaptive.advisoryPartitionSizeInBytes", 16, 256, integral = true, bytes = true)
  val NonEmptyPartitionRatio: ParamDef =
    ParamDef("spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin", 0.01, 0.5, integral = false)
  val ShuffledHashThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold", 0, 512, integral = true, bytes = true)
  val BroadcastThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.autoBroadcastJoinThreshold", 0, 512, integral = true, bytes = true)
  val ShufflePartitions: ParamDef = ParamDef("spark.sql.shuffle.partitions", 20, 2000, integral = true)
  val SkewedPartitionThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes", 64, 1024, integral = true, bytes = true)
  val SkewedPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionFactor", 2, 10, integral = true)
  val MaxPartitionBytesMb: ParamDef =
    ParamDef("spark.sql.files.maxPartitionBytes", 32, 512, integral = true, bytes = true)
  val OpenCostMb: ParamDef =
    ParamDef("spark.sql.files.openCostInBytes", 2, 8, integral = true, bytes = true)

  // ---- θs: query-stage parameters (s10, s11) -------------------------------
  val SmallPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor", 0.1, 0.5, integral = false)
  val MinPartitionSizeMb: ParamDef =
    ParamDef("spark.sql.adaptive.coalescePartitions.minPartitionSize", 1, 64, integral = true, bytes = true)

  val thetaCDefs: Vector[ParamDef] = Vector(
    ExecutorCores, ExecutorMemoryGb, ExecutorInstances, DefaultParallelism,
    MaxSizeInFlightMb, BypassMergeThreshold, ShuffleCompress, MemoryFraction)

  val thetaPDefs: Vector[ParamDef] = Vector(
    AdvisoryPartitionMb, NonEmptyPartitionRatio, ShuffledHashThresholdMb, BroadcastThresholdMb,
    ShufflePartitions, SkewedPartitionThresholdMb, SkewedPartitionFactor, MaxPartitionBytesMb,
    OpenCostMb)

  val thetaSDefs: Vector[ParamDef] = Vector(SmallPartitionFactor, MinPartitionSizeMb)

  val dC: Int = thetaCDefs.size // 8
  val dP: Int = thetaPDefs.size // 9
  val dS: Int = thetaSDefs.size // 2
  val dAll: Int = dC + dP + dS  // 19
}

/** The unit⇄value codec of one θ block, driven by its parameter table:
  * coordinate `i` maps through `defs(i)`. Each companion only builds its
  * case class from the decoded values, in table order.
  */
sealed abstract class ThetaBlock[T](
    private[params] val defs: Vector[SparkParams.ParamDef], label: String) {
  /** The block's case class from domain values in table order. */
  protected def build(v: Array[Double]): T

  /** Decode exactly one unit coordinate per parameter of the block. */
  def fromUnit(u: collection.IndexedSeq[Double]): T = {
    require(u.size == defs.size, s"$label needs ${defs.size} coords, got ${u.size}")
    decode(u, 0)
  }

  /** Decode the block's coordinates starting at `u(from)`. */
  private[params] def decode(u: collection.IndexedSeq[Double], from: Int): T =
    build(Array.tabulate(defs.size)(i => defs(i).fromUnit(u(from + i))))

  /** Unit coordinates of domain `values` in table order. */
  private[params] def toUnit(values: Vector[Double]): Vector[Double] =
    defs.zip(values).map { case (d, v) => d.toUnit(v) }
}

/** Context parameters `θc` — one copy per query (set at submission time). */
final case class ThetaC(
    execCores: Int,
    execMemoryGb: Int,
    execInstances: Int,
    defaultParallelism: Int,
    maxSizeInFlightMb: Int,
    bypassMergeThreshold: Int,
    shuffleCompress: Boolean,
    memoryFraction: Double) {

  /** Total cores allocated to the query (k1 * k3). */
  def totalCores: Int = execCores * execInstances

  /** Total executor memory in GB (k2 * k3). */
  def totalMemGb: Int = execMemoryGb * execInstances

  /** Per-task execution memory in MB: k2 * k8 / k1. */
  def taskMemoryMb: Double = execMemoryGb * 1024.0 * memoryFraction / execCores

  def toVector: Vector[Double] = Vector(
    execCores.toDouble, execMemoryGb.toDouble, execInstances.toDouble,
    defaultParallelism.toDouble, maxSizeInFlightMb.toDouble, bypassMergeThreshold.toDouble,
    if (shuffleCompress) 1.0 else 0.0, memoryFraction)

  /** Unit coordinates of this copy, the inverse of [[ThetaC.fromUnit]]. */
  def toUnit: Vector[Double] = ThetaC.toUnit(toVector)
}

object ThetaC extends ThetaBlock[ThetaC](SparkParams.thetaCDefs, "θc") {

  /** The cluster's out-of-the-box configuration used as the tuning
    * baseline — stock Spark asks for small executors (1g/1-core scale),
    * which on a beefy cluster leaves most resources idle.
    */
  val default: ThetaC = ThetaC(
    execCores = 2, execMemoryGb = 8, execInstances = 6,
    defaultParallelism = 24, maxSizeInFlightMb = 48, bypassMergeThreshold = 200,
    shuffleCompress = true, memoryFraction = 0.6)

  protected def build(v: Array[Double]): ThetaC =
    ThetaC(v(0).toInt, v(1).toInt, v(2).toInt, v(3).toInt, v(4).toInt, v(5).toInt, v(6) >= 0.5, v(7))
}

/** Logical-plan parameters `θp` — one copy per collapsed logical plan. */
final case class ThetaP(
    advisoryPartitionMb: Int,
    nonEmptyPartitionRatio: Double,
    shuffledHashThresholdMb: Int,
    broadcastThresholdMb: Int,
    shufflePartitions: Int,
    skewedPartitionThresholdMb: Int,
    skewedPartitionFactor: Int,
    maxPartitionBytesMb: Int,
    openCostMb: Int) {

  def toVector: Vector[Double] = Vector(
    advisoryPartitionMb.toDouble, nonEmptyPartitionRatio, shuffledHashThresholdMb.toDouble,
    broadcastThresholdMb.toDouble, shufflePartitions.toDouble, skewedPartitionThresholdMb.toDouble,
    skewedPartitionFactor.toDouble, maxPartitionBytesMb.toDouble, openCostMb.toDouble)

  /** Unit coordinates of this copy, the inverse of [[ThetaP.fromUnit]]. */
  def toUnit: Vector[Double] = ThetaP.toUnit(toVector)
}

object ThetaP extends ThetaBlock[ThetaP](SparkParams.thetaPDefs, "θp") {

  /** Spark's default values (10 MB broadcast, SHJ conversion off, 200 partitions). */
  val default: ThetaP = ThetaP(
    advisoryPartitionMb = 64, nonEmptyPartitionRatio = 0.2,
    shuffledHashThresholdMb = 0, broadcastThresholdMb = 10, shufflePartitions = 200,
    skewedPartitionThresholdMb = 256, skewedPartitionFactor = 5,
    maxPartitionBytesMb = 128, openCostMb = 4)

  protected def build(v: Array[Double]): ThetaP =
    ThetaP(v(0).toInt, v(1), v(2).toInt, v(3).toInt, v(4).toInt, v(5).toInt, v(6).toInt, v(7).toInt, v(8).toInt)
}

/** Query-stage parameters `θs` — one copy per query stage. */
final case class ThetaS(smallPartitionFactor: Double, minPartitionSizeMb: Int) {
  def toVector: Vector[Double] = Vector(smallPartitionFactor, minPartitionSizeMb.toDouble)

  /** Unit coordinates of this copy, the inverse of [[ThetaS.fromUnit]]. */
  def toUnit: Vector[Double] = ThetaS.toUnit(toVector)
}

object ThetaS extends ThetaBlock[ThetaS](SparkParams.thetaSDefs, "θs") {

  val default: ThetaS = ThetaS(smallPartitionFactor = 0.2, minPartitionSizeMb = 1)

  protected def build(v: Array[Double]): ThetaS = ThetaS(v(0), v(1).toInt)
}

/** A full single-copy configuration `(θc, θp, θs)` — what query-level tuners
  * search over, and what the simulator executes a stage with.
  */
final case class Configuration(c: ThetaC, p: ThetaP, s: ThetaS)

object Configuration {
  import SparkParams.{dAll, dC, dP}

  val default: Configuration = Configuration(ThetaC.default, ThetaP.default, ThetaS.default)

  def fromUnit(u: collection.IndexedSeq[Double]): Configuration = {
    require(u.size == dAll, s"need $dAll coords, got ${u.size}")
    Configuration(ThetaC.decode(u, 0), ThetaP.decode(u, dC), ThetaS.decode(u, dC + dP))
  }
}
