package perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One recorded span. `parent` is 0 for a root span; all spans of one
  * request (one iteration, session or set-up) share `request`.
  */
final case class Span(id: Long, name: String, parent: Long, request: Long,
                      startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** Spans around the benchmark's calls into the program's layers.
  *
  * Spans are kept in memory and written out when the run ends. When
  * tracing is off, `span` only runs its body. `onEnter` / `onExit` let the
  * caller tag the work a span does; the runner sets the span's id as the
  * Spark job group of the calling thread, so [[SparkCounters]] can sum
  * task metrics per span.
  */
final class Tracer(val enabled: Boolean,
                   clock: () => Long = () => System.nanoTime(),
                   onEnter: Long => Unit = _ => (),
                   onExit: Option[Long] => Unit = _ => ()) {

  private val done    = mutable.ArrayBuffer.empty[Span]
  private var open    = List.empty[(Long, String, Long)] // (id, name, start)
  private var nextId  = 1L
  private var current = 0L
  private val counts  = mutable.Map.empty[(Long, String), Double]

  def spans: Seq[Span] = done.toSeq

  /** Runs `body` as a new request: its spans share a fresh request id. */
  def request[A](body: => A): A = {
    val saved = current
    current = nextId; nextId += 1
    try body finally current = saved
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(0L)
      open = (id, name, clock()) :: open
      onEnter(id)
      try body
      finally {
        val (_, _, start) = open.head
        open = open.tail
        done += Span(id, name, parent, current, start, clock())
        onExit(open.headOption.map(_._1))
      }
    }

  /** Adds `value` to a named count of the current request. */
  def count(name: String, value: Double): Unit =
    if (enabled) counts((current, name)) = counts.getOrElse((current, name), 0.0) + value

  /** Count totals per request, for one count name. */
  def countsOf(name: String): Seq[Double] =
    counts.collect { case ((_, n), v) if n == name => v }.toSeq

  /** A span's duration minus the part of it that its children cover. */
  def selfTimeNs(s: Span): Long =
    Tracer.selfTime((s.startNs, s.endNs),
                    done.filter(_.parent == s.id).map(c => (c.startNs, c.endNs)).toSeq)

  /** Per-request sums of the self time (ms) of spans named `name`. */
  def selfMsPerRequest(name: String): Seq[Double] =
    done.filter(_.name == name).groupBy(_.request).values
      .map(_.map(selfTimeNs).sum / 1e6).toSeq

  /** Ids of `s` and every span below it. */
  def subtree(s: Span): Seq[Long] = {
    val kids = done.filter(_.parent == s.id)
    s.id +: kids.flatMap(subtree).toSeq
  }
}

/** Spark task metrics summed per job group, as a [[SparkListener]]. */
final class SparkCounters extends SparkListener {

  /** Totals of one group. */
  final case class Totals(jobs: Long, tasks: Long, taskMs: Long, shuffleBytes: Long,
                          spillBytes: Long, peakExecBytes: Long) {
    def +(o: Totals): Totals = Totals(jobs + o.jobs, tasks + o.tasks, taskMs + o.taskMs,
      shuffleBytes + o.shuffleBytes, spillBytes + o.spillBytes,
      math.max(peakExecBytes, o.peakExecBytes))
  }
  val Zero: Totals = Totals(0, 0, 0, 0, 0, 0)

  private val groupOfStage = new ConcurrentHashMap[Int, String]()
  private val groupOfJob   = new ConcurrentHashMap[Int, String]()
  private val totals       = new ConcurrentHashMap[String, Totals]()
  @volatile private var markersSeen = 0

  private def add(group: String, t: Totals): Unit =
    totals.merge(group, t, (a: Totals, b: Totals) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.JobGroupKey)))
      .foreach { g =>
        groupOfJob.put(e.jobId, g)
        e.stageIds.foreach(groupOfStage.putIfAbsent(_, g))
        add(g, Zero.copy(jobs = 1))
      }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (groupOfJob.get(e.jobId) == SparkCounters.Marker) markersSeen += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(groupOfStage.get(e.stageId)).foreach { g =>
      val m = e.taskMetrics
      if (m == null) add(g, Zero.copy(tasks = 1))
      else add(g, Totals(0, 1, m.executorRunTime,
        m.shuffleWriteMetrics.bytesWritten + m.shuffleReadMetrics.totalBytesRead,
        m.memoryBytesSpilled + m.diskBytesSpilled, m.peakExecutionMemory))
    }

  /** Waits until the listener has seen every event posted so far: runs a
    * marker job and waits for its end, which the bus delivers in order.
    */
  def awaitQuiet(sc: SparkContext, timeoutMs: Long = 10000): Unit = {
    val before = markersSeen
    sc.setJobGroup(SparkCounters.Marker, "drain the listener bus")
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    while (markersSeen == before && System.currentTimeMillis() < deadline) Thread.sleep(10)
  }

  def of(group: String): Totals = Option(totals.get(group)).getOrElse(Zero)
}

object SparkCounters {
  val Marker = "perfbench.marker"
  /** The local property `SparkContext.setJobGroup` sets. */
  val JobGroupKey = "spark.jobGroup.id"
}

object Tracer {
  /** A tracer that records nothing. */
  val Off = new Tracer(false)

  /** Length of `span` minus the part covered by `children`, where
    * overlapping children (work on other threads) are counted once.
    */
  def selfTime(span: (Long, Long), children: Seq[(Long, Long)]): Long = {
    val (start, end) = span
    var covered = 0L
    var reach   = start
    children.map { case (a, b) => (math.max(a, start), math.min(b, end)) }
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
      .foreach { case (a, b) =>
        val from = math.max(a, reach)
        if (b > from) covered += b - from
        reach = math.max(reach, b)
      }
    (end - start) - covered
  }
}
