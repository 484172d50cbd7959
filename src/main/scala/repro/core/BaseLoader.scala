package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.events.EventStore

/** Where the engine reads events from. */
sealed trait EventSource
/** The partitioned Parquet store ([[EventStore]]) — enables pruning. */
final case class StorePath(path: String) extends EventSource
/** An in-memory frame (tests). */
final case class InMemory(df: DataFrame) extends EventSource

/** Loads the base events for a query's global constraints, with partition
  * pruning and a hot-partition cache: the paper's store keeps the
  * partitions under investigation in memory (in-memory indexes /
  * hypertable); here the pruned base of each host's (agent, days) footprint
  * is pinned on first use and reused by the statistics pass, every pattern
  * scan, and later queries over the same host-days. A multi-host footprint
  * is the union of its hosts' pins, so it shares them instead of pinning a
  * second copy (Spark caches by plan; a cached union would be a new copy),
  * and Spark scans the hosts in parallel, one task per pinned partition.
  *
  * One loader serves every engine of an [[Aiql]] session. Release with
  * [[close]].
  */
final class BaseLoader(spark: SparkSession, source: EventSource, conf: AiqlConf = AiqlConf()) {

  private val pins = scala.collection.concurrent.TrieMap[
    (Int, Option[Seq[String]]), (DataFrame, Long)]()

  /** Unpersist every partition this loader pinned in memory. */
  def close(): Unit = {
    pins.values.foreach(_._1.unpersist())
    pins.clear()
  }

  def baseEvents(globals: Seq[Ast.Global]): DataFrame =
    baseEventsWithSize(globals)._1

  /** Base events for the globals plus, when known, the footprint's row
    * count. The residual global predicate is always applied on top of the
    * (possibly partition-pruned) scan. Only agent-bound footprints are
    * pinned and counted — they are small, and their size is the engine's
    * cheapest statistic (one count per host-days, amortized over every
    * query investigating that host); a day-wide footprint is left to the
    * vectorized Parquet scan, which outruns Spark's in-memory cache format
    * on wide rows.
    */
  def baseEventsWithSize(globals: Seq[Ast.Global]): (DataFrame, Option[Long]) = {
    val (df, rows) = source match {
      case InMemory(d) => (d, None)
      case StorePath(p) =>
        val agents = if (conf.partitionPruning) Times.agents(globals) else None
        val days =
          if (conf.partitionPruning)
            Times.window(globals).map { case (s, t) => Times.daysOf(s, t) }
          else None
        agents match {
          case None => (EventStore.readPruned(spark, p, None, days), None)
          case Some(as) =>
            val hostPins = as.map(a => pins.getOrElseUpdate((a, days), {
              val c = EventStore.readPruned(spark, p, Some(Seq(a)), days).cache()
              (c, c.count())
            }))
            (hostPins.map(_._1).reduce(_ union _), Some(hostPins.map(_._2).sum))
        }
    }
    (df.filter(PatternCompiler.globalPred(globals)), rows)
  }
}
