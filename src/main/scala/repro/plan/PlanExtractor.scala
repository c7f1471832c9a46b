package repro.plan

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical._
import repro.workload.{OpType, QueryGraph, SubQ}

/** Maps a real Catalyst optimized `LogicalPlan` to the paper's subQ DAG
  * abstraction (§4.1).
  *
  * SubQ boundaries follow Spark's stage formation: narrow operators
  * (Filter/Project/...) pipeline into the stage of their child, while
  * joins, aggregates and unions start a new stage fed by exchanges.
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
           inBytes: Long, inRows: Long, outBytes: Long, outRows: Long, depth: Int): Int = {
      val id = nextId
      nextId += 1
      subQs += SubQ(id, ops, children, table, inBytes, inRows, outBytes, outRows,
        cardErrFactor = 1.0, skew = 1.0, joinDepth = depth)
      id
    }

    // Returns (subQ id, pending op types folded into that stage, join depth).
    final case class Ref(id: Int, depth: Int)

    def opOf(p: LogicalPlan): Option[OpType] = p match {
      case _: Filter  => Some(OpType.Filter)
      case _: Project => Some(OpType.Project)
      case _: Sort    => Some(OpType.Sort)
      case _          => None
    }

    // Narrow operators pipelined into an existing stage (Spark folds
    // Filter/Project/Sort into the stage of their child).
    val extraOps = collection.mutable.Map.empty[Int, Vector[OpType]].withDefaultValue(Vector.empty)

    def build(p: LogicalPlan): Ref = p match {
      case j: Join =>
        val l = build(j.left); val r = build(j.right)
        val (lb, lr) = statsOf(j.left); val (rb, rr) = statsOf(j.right)
        val (ob, or) = statsOf(j)
        val depth = math.max(l.depth, r.depth) + 1
        Ref(mk(Vector(OpType.Join, OpType.Exchange), Vector(l.id, r.id), None,
          lb + rb, lr + rr, ob, or, depth), depth)
      case a: Aggregate =>
        val c = build(a.child)
        val (ib, ir) = statsOf(a.child); val (ob, or) = statsOf(a)
        Ref(mk(Vector(OpType.Aggregate), Vector(c.id), None, ib, ir, ob, or, c.depth), c.depth)
      case u: Union =>
        val kids = u.children.map(build)
        val (ob, or) = statsOf(u)
        val ins = u.children.map(statsOf)
        val depth = kids.map(_.depth).max
        Ref(mk(Vector(OpType.Union, OpType.Exchange), kids.map(_.id).toVector, None,
          ins.map(_._1).sum, ins.map(_._2).sum, ob, or, depth), depth)
      case narrow if narrow.children.size == 1 && opOf(narrow).isDefined =>
        val c = build(narrow.children.head)
        extraOps(c.id) = extraOps(c.id) :+ opOf(narrow).get
        c
      case other if other.children.size == 1 =>
        build(other.children.head)
      case leaf if leaf.children.isEmpty =>
        val (b, r) = statsOf(leaf)
        Ref(mk(Vector(OpType.Scan, OpType.Exchange), Vector.empty,
          Some(leaf.nodeName.toLowerCase), b, r, b, r, 0), 0)
      case other =>
        throw new IllegalArgumentException(
          s"cannot model plan node ${other.nodeName} with ${other.children.size} children as subQs")
    }

    build(plan)
    val raw = subQs.result()
    // Fold the narrow operators collected along the way into their stages.
    val folded = raw.map { s =>
      val extras = extraOps(s.id)
      if (extras.isEmpty) s
      else {
        val (pre, post) = s.ops.span(_ != OpType.Exchange)
        s.copy(ops = pre ++ extras ++ post)
      }
    }
    QueryGraph(name, folded)
  }
}
