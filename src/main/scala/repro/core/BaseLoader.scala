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
  * pruning and footprint statistics. A host's footprint is the set of
  * (agent, day) partitions its query reads; its row count comes from the
  * Parquet footers of those files (the paper's engine likewise plans from
  * the store's statistics, not from a first pass over the data), so sizing
  * it starts no Spark job. Each host's pruned frame and row count are kept
  * per (agent, days), so a later query over the same host-days skips the
  * file listing; nothing is held in memory but that metadata. A multi-host
  * footprint is the union of its hosts' frames, one plan that Spark scans
  * one task per partition.
  *
  * One loader serves every engine of an [[Aiql]] session.
  */
final class BaseLoader(spark: SparkSession, source: EventSource, conf: AiqlConf = AiqlConf()) {

  private val footprints = scala.collection.concurrent.TrieMap[
    (Int, Option[Seq[String]]), (DataFrame, Long)]()

  def baseEvents(globals: Seq[Ast.Global]): DataFrame =
    baseEventsWithSize(globals)._1

  /** Base events for the globals plus, when known, the footprint's row
    * count. The residual global predicate is always applied on top of the
    * (possibly partition-pruned) scan. Only agent-bound footprints are
    * counted; a day-wide query has no footprint size, so the engine plans it
    * from its relevant set and per-pattern counts.
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
            val hosts = as.map(a => footprints.getOrElseUpdate((a, days),
              EventStore.readPrunedWithRows(spark, p, Some(Seq(a)), days)))
            (hosts.map(_._1).reduce(_ union _), Some(hosts.map(_._2).sum))
        }
    }
    (df.filter(PatternCompiler.globalPred(globals)), rows)
  }
}
