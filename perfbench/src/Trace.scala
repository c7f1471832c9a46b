package perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo

/** Bench-side spans around the calls the benchmark makes into the program.
  *
  * Spans are kept in memory and written out when the run ends. With tracing
  * off, [[span]] is a plain call: no clock reads, no allocation.
  */
final class Tracer(var enabled: Boolean) {

  final case class Span(id: Int, parent: Int, query: Int, name: String, start: Long, end: Long)

  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  /** Id shared by the spans of one query (-1 outside any query). */
  var query: Int = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, query, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Per span name: (calls, total ns, self ns). Self time is a span's
    * duration minus the part its direct children cover.
    */
  def summary: Map[String, (Int, Long, Long)] = {
    val childNs = done.groupMapReduce(_.parent)(s => s.end - s.start)(_ + _)
    done.groupBy(_.name).map { case (n, ss) =>
      val total = ss.map(s => s.end - s.start).sum
      val self = ss.map(s => (s.end - s.start) - childNs.getOrElse(s.id, 0L)).sum
      n -> ((ss.size, total, self))
    }
  }

  def meanUs(name: String): Double = summary.get(name).fold(0.0)(t => t._2 / 1e3 / t._1)
  def meanSelfUs(name: String): Double = summary.get(name).fold(0.0)(t => t._3 / 1e3 / t._1)

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = done.map(s => Json.obj(
      "id" -> s.id, "parent" -> s.parent, "query" -> s.query, "name" -> s.name,
      "start_ns" -> s.start, "end_ns" -> s.end))
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** JVM-wide counters: per-thread allocation, GC time, and the peak heap
  * that stayed live after a collection.
  */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
  def gcMillis: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum

  @volatile private var peakLive = 0L
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  /** Start recording the heap in use after each collection. */
  def watchHeap(): Unit = gcs.foreach {
    case e: NotificationEmitter =>
      e.addNotificationListener(new NotificationListener {
        def handleNotification(n: Notification, hb: AnyRef): Unit =
          if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
            val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
            val live = info.getGcInfo.getMemoryUsageAfterGc.asScala
              .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
            if (live > peakLive) peakLive = live
          }
      }, null, null)
    case _ => ()
  }

  /** Largest heap occupancy seen right after a collection, in MB. */
  def peakLiveMb: Double = peakLive / 1048576.0
}

object Stats {
  /** Linear-interpolated percentile (`q` in [0, 1]) of a non-empty sample. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.size - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Mean of the middle 90% of a sample: robust to a stray pause, and
    * steady where the median falls between two clusters of values.
    */
  def trimmedMean(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val cut = s.size / 20
    mean(s.slice(cut, s.size - cut))
  }

  /** Highest of p50/p75/p90/p99 with at least ten samples beyond it. */
  def tailLevel(n: Int): Double =
    Seq(0.99, 0.9, 0.75, 0.5).find(q => n * (1 - q) >= 10).getOrElse(0.5)
}

/** Minimal JSON rendering for the result line and result files. */
object Json {
  def obj(kv: (String, Any)*): String = kv.map { case (k, v) => s"${str(k)}: ${render(v)}" }.mkString("{", ", ", "}")

  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => str(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case Raw(s)               => s
    case m: scala.collection.Map[_, _] =>
      m.toSeq.map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(render).mkString("[", ", ", "]")
    case p: Product if p.productArity == 2 => render(Seq(p.productElement(0), p.productElement(1)))
    case other                => str(other.toString)
  }

  /** Already-rendered JSON. */
  final case class Raw(json: String)

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
