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
    * @param name     the Spark conf key (documentation; the simulator and
    *                 `ConfApplicator` interpret them)
    * @param lo       domain lower bound
    * @param hi       domain upper bound
    * @param integral whether values are rounded to integers when decoded
    */
  final case class ParamDef(name: String, lo: Double, hi: Double, integral: Boolean) {
    require(hi > lo, s"degenerate domain for $name")

    /** Clamp and (for integral params) round a raw value into the domain. */
    def clamp(v: Double): Double = {
      val c = math.min(hi, math.max(lo, v))
      if (integral) math.round(c).toDouble else c
    }

    /** Map a unit-interval coordinate to a domain value. */
    def fromUnit(u: Double): Double = clamp(lo + (hi - lo) * math.min(1.0, math.max(0.0, u)))

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
    ParamDef("spark.sql.adaptive.advisoryPartitionSizeInBytes", 16, 256, integral = true)
  val NonEmptyPartitionRatio: ParamDef =
    ParamDef("spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin", 0.01, 0.5, integral = false)
  val ShuffledHashThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold", 0, 512, integral = true)
  val BroadcastThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.autoBroadcastJoinThreshold", 0, 512, integral = true)
  val ShufflePartitions: ParamDef = ParamDef("spark.sql.shuffle.partitions", 20, 2000, integral = true)
  val SkewedPartitionThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes", 64, 1024, integral = true)
  val SkewedPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionFactor", 2, 10, integral = true)
  val MaxPartitionBytesMb: ParamDef =
    ParamDef("spark.sql.files.maxPartitionBytes", 32, 512, integral = true)
  val OpenCostMb: ParamDef = ParamDef("spark.sql.files.openCostInBytes", 2, 8, integral = true)

  // ---- θs: query-stage parameters (s10, s11) -------------------------------
  val SmallPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor", 0.1, 0.5, integral = false)
  val MinPartitionSizeMb: ParamDef =
    ParamDef("spark.sql.adaptive.coalescePartitions.minPartitionSize", 1, 64, integral = true)

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
  def toUnit: Vector[Double] = SparkParams.thetaCDefs.zip(toVector).map { case (d, v) => d.toUnit(v) }
}

object ThetaC {
  import SparkParams._

  /** The cluster's out-of-the-box configuration used as the tuning
    * baseline — stock Spark asks for small executors (1g/1-core scale),
    * which on a beefy cluster leaves most resources idle.
    */
  val default: ThetaC = ThetaC(
    execCores = 2, execMemoryGb = 8, execInstances = 6,
    defaultParallelism = 24, maxSizeInFlightMb = 48, bypassMergeThreshold = 200,
    shuffleCompress = true, memoryFraction = 0.6)

  def fromVector(v: IndexedSeq[Double]): ThetaC = {
    require(v.size == dC, s"θc needs $dC values, got ${v.size}")
    ThetaC(
      ExecutorCores.clamp(v(0)).toInt, ExecutorMemoryGb.clamp(v(1)).toInt,
      ExecutorInstances.clamp(v(2)).toInt, DefaultParallelism.clamp(v(3)).toInt,
      MaxSizeInFlightMb.clamp(v(4)).toInt, BypassMergeThreshold.clamp(v(5)).toInt,
      ShuffleCompress.clamp(v(6)) >= 0.5, MemoryFraction.clamp(v(7)))
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaC =
    fromVector(thetaCDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
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
  def toUnit: Vector[Double] = SparkParams.thetaPDefs.zip(toVector).map { case (d, v) => d.toUnit(v) }
}

object ThetaP {
  import SparkParams._

  /** Spark's default values (10 MB broadcast, SHJ conversion off, 200 partitions). */
  val default: ThetaP = ThetaP(
    advisoryPartitionMb = 64, nonEmptyPartitionRatio = 0.2,
    shuffledHashThresholdMb = 0, broadcastThresholdMb = 10, shufflePartitions = 200,
    skewedPartitionThresholdMb = 256, skewedPartitionFactor = 5,
    maxPartitionBytesMb = 128, openCostMb = 4)

  def fromVector(v: IndexedSeq[Double]): ThetaP = {
    require(v.size == dP, s"θp needs $dP values, got ${v.size}")
    ThetaP(
      AdvisoryPartitionMb.clamp(v(0)).toInt, NonEmptyPartitionRatio.clamp(v(1)),
      ShuffledHashThresholdMb.clamp(v(2)).toInt, BroadcastThresholdMb.clamp(v(3)).toInt,
      ShufflePartitions.clamp(v(4)).toInt, SkewedPartitionThresholdMb.clamp(v(5)).toInt,
      SkewedPartitionFactor.clamp(v(6)).toInt, MaxPartitionBytesMb.clamp(v(7)).toInt,
      OpenCostMb.clamp(v(8)).toInt)
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaP =
    fromVector(thetaPDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
}

/** Query-stage parameters `θs` — one copy per query stage. */
final case class ThetaS(smallPartitionFactor: Double, minPartitionSizeMb: Int) {
  def toVector: Vector[Double] = Vector(smallPartitionFactor, minPartitionSizeMb.toDouble)

  /** Unit coordinates of this copy, the inverse of [[ThetaS.fromUnit]]. */
  def toUnit: Vector[Double] = SparkParams.thetaSDefs.zip(toVector).map { case (d, v) => d.toUnit(v) }
}

object ThetaS {
  import SparkParams._

  val default: ThetaS = ThetaS(smallPartitionFactor = 0.2, minPartitionSizeMb = 1)

  def fromVector(v: IndexedSeq[Double]): ThetaS = {
    require(v.size == dS, s"θs needs $dS values, got ${v.size}")
    ThetaS(SmallPartitionFactor.clamp(v(0)), MinPartitionSizeMb.clamp(v(1)).toInt)
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaS =
    fromVector(thetaSDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
}

/** A full single-copy configuration `(θc, θp, θs)` — what query-level tuners
  * search over, and what the simulator executes a stage with.
  */
final case class Configuration(c: ThetaC, p: ThetaP, s: ThetaS) {
  def toVector: Vector[Double] = c.toVector ++ p.toVector ++ s.toVector
}

object Configuration {
  val default: Configuration = Configuration(ThetaC.default, ThetaP.default, ThetaS.default)

  def fromUnit(u: IndexedSeq[Double]): Configuration = {
    require(u.size == SparkParams.dAll, s"need ${SparkParams.dAll} coords, got ${u.size}")
    Configuration(
      ThetaC.fromUnit(u.slice(0, SparkParams.dC)),
      ThetaP.fromUnit(u.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP)),
      ThetaS.fromUnit(u.slice(SparkParams.dC + SparkParams.dP, SparkParams.dAll)))
  }
}
