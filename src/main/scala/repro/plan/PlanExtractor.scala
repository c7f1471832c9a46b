package repro.plan

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical._
import repro.workload.{OpType, QueryGraph, SubQ}

/** Maps a real Catalyst optimized `LogicalPlan` to the paper's subQ DAG
  * abstraction (§4.1).
  *
  * SubQ boundaries follow Spark's stage formation: narrow operators
  * (Filter/Project/...) pipeline into the stage of their child, while
  * joins, aggregates and unions start a new stage fed by exchanges. A
  * stage's output is the statistics of its topmost node, which is what its
  * parent reads.
  * Statistics come from Catalyst's cost-based optimizer (`plan.stats`),
  * i.e. exactly the `α_cbo` the paper's compile-time models consume.
  * Only childless nodes become scans; any other multi-input node (e.g. a
  * `CoGroup`) is rejected rather than mis-modelled.
  */
object PlanExtractor {

  /** Extract the subQ DAG of `df`'s optimized logical plan. */
  def extract(df: DataFrame, name: String): QueryGraph = {
    val plan = df.queryExecution.optimizedPlan
    val subQs = Vector.newBuilder[SubQ]
    var nextId = 0

    def statsOf(p: LogicalPlan): (Long, Long) = {
      val s = p.stats
      val bytes = s.sizeInBytes.min(BigInt(Long.MaxValue)).toLong.max(1L)
      val rows = s.rowCount.map(_.min(BigInt(Long.MaxValue)).toLong.max(1L))
        .getOrElse(math.max(1L, bytes / 100))
      (bytes, rows)
    }

    def mk(ops: Vector[OpType], children: Vector[Int], table: Option[String],
           inBytes: Long, inRows: Long, outBytes: Long, outRows: Long): Int = {
      val id = nextId
      nextId += 1
      subQs += SubQ(id, ops, children, table, inBytes, inRows, outBytes, outRows,
        cardErrFactor = 1.0, skew = 1.0)
      id
    }

    def opOf(p: LogicalPlan): Option[OpType] = p match {
      case _: Filter  => Some(OpType.Filter)
      case _: Project => Some(OpType.Project)
      case _: Sort    => Some(OpType.Sort)
      case _          => None
    }

    // Narrow operators pipelined into an existing stage (Spark folds
    // Filter/Project/Sort into the stage of their child), and the statistics
    // of each stage's topmost node, which its parent reads as input.
    val extraOps = collection.mutable.Map.empty[Int, Vector[OpType]].withDefaultValue(Vector.empty)
    val outOf = collection.mutable.Map.empty[Int, (Long, Long)]

    // Builds the stages of `p`'s subtree; returns the id of its top subQ.
    def build(p: LogicalPlan): Int = p match {
      case j: Join =>
        val l = build(j.left); val r = build(j.right)
        val (lb, lr) = statsOf(j.left); val (rb, rr) = statsOf(j.right)
        val (ob, or) = statsOf(j)
        mk(Vector(OpType.Join, OpType.Exchange), Vector(l, r), None, lb + rb, lr + rr, ob, or)
      case a: Aggregate =>
        val c = build(a.child)
        val (ib, ir) = statsOf(a.child); val (ob, or) = statsOf(a)
        mk(Vector(OpType.Aggregate), Vector(c), None, ib, ir, ob, or)
      case u: Union =>
        val kids = u.children.map(build)
        val (ob, or) = statsOf(u)
        val ins = u.children.map(statsOf)
        mk(Vector(OpType.Union, OpType.Exchange), kids.toVector, None,
          ins.map(_._1).sum, ins.map(_._2).sum, ob, or)
      case unary if unary.children.size == 1 =>
        val c = build(unary.children.head)
        opOf(unary).foreach(op => extraOps(c) = extraOps(c) :+ op)
        outOf(c) = statsOf(unary)
        c
      case leaf if leaf.children.isEmpty =>
        val (b, r) = statsOf(leaf)
        mk(Vector(OpType.Scan, OpType.Exchange), Vector.empty, Some(leaf.nodeName.toLowerCase), b, r, b, r)
      case other =>
        throw new IllegalArgumentException(
          s"cannot model plan node ${other.nodeName} with ${other.children.size} children as subQs")
    }

    build(plan)
    val raw = subQs.result()
    // Fold the narrow operators and top statistics collected along the way
    // into their stages.
    val folded = raw.map { s =>
      val (pre, post) = s.ops.span(_ != OpType.Exchange)
      val (ob, or) = outOf.getOrElse(s.id, (s.trueOutBytes, s.trueOutRows))
      s.copy(ops = pre ++ extraOps(s.id) ++ post, trueOutBytes = ob, trueOutRows = or)
    }
    QueryGraph(name, folded)
  }
}
