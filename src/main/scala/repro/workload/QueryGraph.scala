package repro.workload

import repro.params.ThetaP

/** Logical operator kinds appearing inside a subQ.
  *
  * The paper (§4.3) encodes each operator one-hot by type; this enum is that
  * vocabulary. `Exchange` marks the shuffle boundary a subQ ends with.
  */
sealed abstract class OpType(val id: Int) extends Product with Serializable
object OpType {
  case object Scan      extends OpType(0)
  case object Filter    extends OpType(1)
  case object Project   extends OpType(2)
  case object Join      extends OpType(3)
  case object Aggregate extends OpType(4)
  case object Sort      extends OpType(5)
  case object Exchange  extends OpType(6)
  case object Union     extends OpType(7)

  val all: Vector[OpType] = Vector(Scan, Filter, Project, Join, Aggregate, Sort, Exchange, Union)
  val vocabSize: Int = all.size
}

/** Physical join algorithms the parametric planning rules choose among. */
sealed trait JoinAlgo extends Product with Serializable
object JoinAlgo {
  /** Broadcast hash join — no shuffle, build side replicated to executors. */
  case object BHJ extends JoinAlgo
  /** Shuffled hash join — both sides shuffled, hash build on the smaller. */
  case object SHJ extends JoinAlgo
  /** Sort-merge join — both sides shuffled and sorted. */
  case object SMJ extends JoinAlgo

  /** The integer code under which traces and models see a stage's join
    * algorithm: 0 none (not a join), 1 BHJ, 2 SHJ, 3 SMJ.
    */
  def code(algo: Option[JoinAlgo]): Int = algo match {
    case None      => 0
    case Some(BHJ) => 1
    case Some(SHJ) => 2
    case Some(SMJ) => 3
  }

  /** The parametric join-selection rule: BHJ when the build side fits the
    * broadcast threshold `s4`, SHJ when its per-partition size (over `s5`
    * partitions) fits `s3`, else SMJ. The simulator plans with it and the
    * model features encode it.
    */
  def choose(buildMb: Double, p: ThetaP): JoinAlgo =
    if (buildMb <= p.broadcastThresholdMb) BHJ
    else if (buildMb / math.max(1, p.shufflePartitions) <= p.shuffledHashThresholdMb) SHJ
    else SMJ
}

/** One subQ: the group of logical operators that becomes a query stage (QS)
  * when the plan is translated to a physical plan (§4.1).
  *
  * Statistics carry *true* values; the CBO's estimate of the output
  * multiplies them by `cardErrFactor` (the misestimation, deterministic per
  * operator, with variance growing in join depth — §3.2's Fig 3b
  * pathology). Compile time reads them through [[QueryGraph.estimated]].
  *
  * @param id             index within the query (topologically ordered:
  *                       children always have smaller ids)
  * @param ops            operator types inside the stage
  * @param children       upstream subQ ids this stage reads shuffle (or
  *                       broadcast) output from
  * @param baseTable      table name for scan stages
  * @param trueInputBytes true bytes read by the stage (scan bytes, or sum of
  *                       children shuffle-write bytes)
  * @param trueInputRows  true row count read
  * @param trueOutBytes   true bytes this stage writes to its output exchange
  * @param trueOutRows    true rows written
  * @param cardErrFactor  multiplicative CBO error on this stage's output
  *                       cardinality (1.0 = perfect estimate)
  * @param skew           partition-size skew: max/mean ratio of the stage's
  *                       input partition sizes (β in the paper; 1.0 = uniform)
  */
final case class SubQ(
    id: Int,
    ops: Vector[OpType],
    children: Vector[Int],
    baseTable: Option[String],
    trueInputBytes: Long,
    trueInputRows: Long,
    trueOutBytes: Long,
    trueOutRows: Long,
    cardErrFactor: Double,
    skew: Double) {

  def isScan: Boolean = ops.contains(OpType.Scan)
  def isJoin: Boolean = ops.contains(OpType.Join)
}

/** A query as a DAG of subQs — the compile-time analogue of the physical
  * plan's DAG of query stages (§4.1). SubQs are stored in topological order,
  * and every stage but a scan reads exactly the bytes and rows its children
  * write. The constructor rejects a graph that breaks either rule, or that
  * has a scan with inputs or a join without exactly two.
  */
final case class QueryGraph(name: String, subQs: Vector[SubQ]) {
  require(subQs.nonEmpty, s"$name: empty query graph")
  require(subQs.zipWithIndex.forall { case (s, i) => s.id == i },
    s"$name: subQ ids must equal positions")
  require(subQs.forall(s => s.children.forall(c => c >= 0 && c < s.id)),
    s"$name: children must precede parents (topological order)")
  require(subQs.forall(s => !s.isScan || s.children.isEmpty),
    s"$name: a scan stage must not read other stages")
  require(subQs.forall(s => !s.isJoin || s.children.size == 2),
    s"$name: a join stage must read exactly two stages")
  for (s <- subQs if !s.isScan) {
    val kids = s.children.map(subQs)
    val (kidBytes, kidRows) = (kids.map(_.trueOutBytes).sum, kids.map(_.trueOutRows).sum)
    require(s.trueInputBytes == kidBytes && s.trueInputRows == kidRows,
      s"$name: subQ ${s.id} reads ${s.trueInputBytes} bytes / ${s.trueInputRows} rows, " +
        s"but its children write $kidBytes / $kidRows")
  }

  def numSubQs: Int = subQs.size

  /** Each subQ's stage-schedule level: 0 for a scan, else one above its deepest child. */
  lazy val levelOf: Vector[Int] =
    subQs.foldLeft(Vector.empty[Int])((lv, s) => lv :+ s.children.map(lv(_) + 1).maxOption.getOrElse(0))

  /** The stage schedule: the subQs on each [[levelOf]] level, ids ascending. */
  lazy val levels: Vector[Vector[SubQ]] =
    Vector.tabulate(levelOf.max + 1)(l => subQs.filter(s => levelOf(s.id) == l))

  /** γ per subQ: the number of other stages on its [[levelOf]] level and
    * their input MB under this graph's statistics, which AQE knows when the
    * stage is created (every child of that level has completed).
    */
  lazy val contention: Vector[(Int, Double)] = subQs.map { s =>
    val others = levels(levelOf(s.id)).filter(_.id != s.id)
    (others.size, others.map(_.trueInputBytes).sum / 1048576.0)
  }

  /** The subQ that reads each subQ's output; sinks have none. */
  lazy val parentOf: Map[Int, Int] = subQs.flatMap(s => s.children.map(_ -> s.id)).toMap

  /** This graph with `f` applied to each subQ in id order; then every
    * non-scan stage reads what its children write (the sums of their output
    * bytes and rows), while a scan keeps the input `f` gives it.
    */
  def withOutputs(f: SubQ => SubQ): QueryGraph = {
    val outs = subQs.map(f)
    copy(subQs = outs.map { s =>
      if (s.isScan) s
      else {
        val kids = s.children.map(outs)
        s.copy(trueInputBytes = kids.map(_.trueOutBytes).sum, trueInputRows = kids.map(_.trueOutRows).sum)
      }
    })
  }

  /** The query as compile time believes it to be: the same stages, in
    * which the `true*` fields hold what the CBO believes. Each subQ's output
    * is its estimate, the true output times `cardErrFactor` (then 1.0); skew
    * is unknown (1.0, so β = 0); a scan reads its table, which the CBO sizes
    * exactly; every other stage reads the sum of its children's estimated
    * outputs. Every compile-time decision reads this graph, so no true
    * statistic reaches one.
    */
  lazy val estimated: QueryGraph = withOutputs { s =>
    def est(x: Long): Long = math.max(1L, (x * s.cardErrFactor).toLong)
    s.copy(trueOutBytes = est(s.trueOutBytes), trueOutRows = est(s.trueOutRows), cardErrFactor = 1.0, skew = 1.0)
  }

  /** Order a join's two children as (probe, build): the build side writes
    * fewer bytes under this graph's statistics (the second child on a tie).
    */
  def probeBuild(join: SubQ): (Int, Int) = {
    val Vector(a, b) = join.children
    if (subQs(a).trueOutBytes >= subQs(b).trueOutBytes) (a, b) else (b, a)
  }

  /** Per subQ, a join's build-side output MB under this graph's
    * statistics; 0 for any other stage.
    */
  lazy val buildMb: Vector[Double] = subQs.map { s =>
    if (s.isJoin) subQs(probeBuild(s)._2).trueOutBytes / 1048576.0 else 0.0
  }

  /** The join algorithm compile time plans for subQ `id` under `p`: the
    * rule applied to the [[estimated]] build side; `None` for a non-join.
    */
  def plannedAlgo(id: Int, p: ThetaP): Option[JoinAlgo] =
    Option.when(subQs(id).isJoin)(JoinAlgo.choose(estimated.buildMb(id), p))

  /** Whether subQ `id` writes its output to a shuffle exchange, given each
    * join's physical algorithm: it has a parent, and that parent is not a
    * BHJ (which collects its build side and pipelines its probe side).
    */
  def writesShuffle(id: Int, algoOf: Int => Option[JoinAlgo]): Boolean =
    parentOf.get(id).exists(pid => !algoOf(pid).contains(JoinAlgo.BHJ))

  /** SubQs no other subQ reads from (the result-producing stages). */
  def sinks: Vector[SubQ] = {
    val referenced = subQs.flatMap(_.children).toSet
    subQs.filterNot(s => referenced.contains(s.id))
  }

  /** Total true bytes scanned from base tables. */
  def totalScanBytes: Long = subQs.filter(_.isScan).map(_.trueInputBytes).sum
}
