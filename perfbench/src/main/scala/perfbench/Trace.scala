package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval on the JVM's monotonic clock (ns). `group` is the Spark
  * job group that was set while the interval ran; it ties Spark jobs to the
  * benchmark call that started them.
  */
final case class Span(name: String, group: String, start: Long, end: Long) {
  def dur: Long = end - start
}

/** Spark work done under one job group, summed over its jobs and stages. */
final class GroupCounters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var inputRecords = 0L
  var inputBytes = 0L
  var shuffleBytes = 0L
}

/** The traced run's recorder. It keeps the benchmark's own spans in memory
  * and, as a `SparkListener`, records each Spark job as a span of its own and
  * counts jobs, stages, tasks, input and shuffle bytes per job group.
  *
  * Listener events arrive on Spark's listener bus thread, after the action
  * that caused them has returned; [[drain]] waits for the bus to catch up.
  */
final class Tracer extends SparkListener {
  import Tracer.ClockSlackNs

  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  /** Spark reports job times in epoch ms; map them onto the span clock. */
  private def fromEpochMs(ms: Long): Long = ms * 1000000L - epochOffsetNs

  private val spans = mutable.ArrayBuffer[Span]()
  private val jobs = mutable.ArrayBuffer[Span]()
  private val openJobs = mutable.Map[Int, (String, Long)]()
  private val stageGroups = mutable.Map[(Int, Int), String]()
  private val counters = mutable.Map[String, GroupCounters]()
  private val endedGroups = mutable.Set[String]()

  def record[A](name: String, group: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      synchronized { spans += Span(name, group, t0, t1) }
    }
  }

  /** The job group `SparkContext.setJobGroup` stores in the job's local
    * properties (the key is not public API, so it is spelled out here).
    */
  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("none")

  private def counter(group: String) = counters.getOrElseUpdate(group, new GroupCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    openJobs(e.jobId) = (g, e.time)
    counter(g).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    openJobs.remove(e.jobId).foreach { case (g, t0) =>
      jobs += Span("spark.job", g, fromEpochMs(t0), fromEpochMs(e.time))
      endedGroups += g
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageGroups((e.stageInfo.stageId, e.stageInfo.attemptNumber())) = groupOf(e.properties)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val c = counter(stageGroups.remove((info.stageId, info.attemptNumber())).getOrElse("none"))
    c.stages += 1
    c.tasks += info.numTasks
    Option(info.taskMetrics).foreach { m =>
      c.inputRecords += m.inputMetrics.recordsRead
      c.inputBytes += m.inputMetrics.bytesRead
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Block until the listener has seen every event posted so far: run one
    * tiny job under a marker group and wait for its end event, which the bus
    * delivers after all earlier events.
    */
  def drain(sc: SparkContext): Unit = {
    val marker = s"drain:${System.nanoTime()}"
    sc.setJobGroup(marker, "listener barrier", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (synchronized(!endedGroups(marker))) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("listener bus did not drain")
      Thread.sleep(5)
    }
  }

  def spanList: Seq[Span] = synchronized(spans.toList)
  def jobList: Seq[Span] = synchronized(jobs.toList)
  def counters(group: String): GroupCounters = synchronized(counters.getOrElse(group, new GroupCounters))

  /** Sum of counters over every group the predicate accepts. */
  def total(pred: String => Boolean): GroupCounters = synchronized {
    val t = new GroupCounters
    for ((g, c) <- counters if pred(g)) {
      t.jobs += c.jobs; t.stages += c.stages; t.tasks += c.tasks
      t.inputRecords += c.inputRecords; t.inputBytes += c.inputBytes
      t.shuffleBytes += c.shuffleBytes
    }
    t
  }

  /** The Spark jobs a span caused: same job group, started inside it. */
  def jobsOf(s: Span, all: Seq[Span]): Seq[Span] =
    all.filter(j => j.group == s.group && j.start >= s.start - ClockSlackNs && j.start <= s.end)

  /** Write every span as one JSON object per line; a job's `parent` is the
    * benchmark span that started it. Times are µs since `t0`.
    */
  def write(path: java.nio.file.Path, t0: Long): Unit = {
    val all = spanList
    val js = jobList
    def line(s: Span, parent: String) =
      s"""{"name":"${s.name}","group":"${s.group}","parent":"$parent",""" +
      s""""start_us":${(s.start - t0) / 1000},"end_us":${(s.end - t0) / 1000}}"""
    val lines = all.map(line(_, "")) ++ js.map { j =>
      line(j, all.find(s => jobsOf(s, Seq(j)).nonEmpty).map(_.name).getOrElse(""))
    }
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Tracer {

  /** Spark stamps jobs in whole epoch ms, so a job may appear to start up to
    * a millisecond before the call that started it.
    */
  val ClockSlackNs: Long = 2000000L

  /** Length of the part of `s` covered by the union of `children`. */
  def covered(s: Span, children: Seq[Span]): Long = {
    val iv = children.map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curEnd = Long.MinValue
    for ((a, b) <- iv) {
      if (a >= curEnd) { total += b - a; curEnd = b }
      else if (b > curEnd) { total += b - curEnd; curEnd = b }
    }
    total
  }
}
