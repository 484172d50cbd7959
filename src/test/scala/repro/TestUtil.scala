package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** Shared assertion helpers for comparing DataFrames across execution paths
  * (optimized engine vs naive SQL baseline) with Oracle-style
  * canonicalization: column order normalized, rows stringified and sorted.
  */
object TestUtil {

  def canon(df: DataFrame): Seq[Seq[String]] = {
    val cols = df.columns.toSeq
    val order = cols.sorted
    val idx = order.map(cols.indexOf)
    df.collect().toSeq
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => "∅"
          case d: Double                => f"$d%.6f"
          case f: Float                 => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                        => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** Assert both frames hold the same multiset of rows (same columns up to
    * order).
    */
  def assertSameRows(a: DataFrame, b: DataFrame, hint: String = ""): Unit = {
    require(a.columns.sorted.toSeq == b.columns.sorted.toSeq,
      s"$hint column mismatch: ${a.columns.sorted.toSeq} vs ${b.columns.sorted.toSeq}")
    val ca = canon(a)
    val cb = canon(b)
    require(ca == cb,
      s"$hint row mismatch (${ca.size} vs ${cb.size}):\n" +
      s"  a-only: ${ca.diff(cb).take(3)}\n  b-only: ${cb.diff(ca).take(3)}")
  }

  /** Does some row bind the named columns to the expected values? */
  def containsBinding(df: DataFrame, expect: Map[String, String]): Boolean = {
    val cols = df.columns.toSeq
    val idx = expect.keys.map(k => k -> cols.indexOf(k)).toMap
    require(idx.values.forall(_ >= 0), s"missing columns ${expect.keys.filter(idx(_) < 0)} in ${cols}")
    df.collect().exists { r: Row =>
      expect.forall { case (k, v) => Option(r.get(idx(k))).map(_.toString).contains(v) }
    }
  }

  /** Number of Spark jobs `f` starts. Listener events arrive asynchronously,
    * so a marker job (whose start event follows every earlier one) closes
    * the count.
    */
  def sparkJobs(spark: SparkSession)(f: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"counted:${System.nanoTime()}"
    val marker = s"$group:end"
    val jobs = new AtomicInteger
    val done = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some(`group`)  => jobs.incrementAndGet()
          case Some(`marker`) => done.countDown()
          case _              =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try f finally sc.clearJobGroup()
      sc.setJobGroup(marker, "listener barrier")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      require(done.await(60, TimeUnit.SECONDS), "listener bus did not drain")
      jobs.get
    } finally sc.removeSparkListener(listener)
  }
}
