package repro.attack

import java.nio.file.Files

import repro.{SparkSpec, TestUtil}
import repro.core._
import repro.events.EventStore

/** The full storage path: events written to the partitioned store, queried
  * through [[StorePath]] with partition pruning — results must match the
  * in-memory execution, and pruning must actually reduce scanned files.
  */
class StoreIntegrationSpec extends SparkSpec {

  private lazy val (storeDir, events) = {
    val dir = Files.createTempDirectory("aiql-store").toString
    val df = AttackDataGen.events(spark, sf = 0.004, seed = 7)
    EventStore.write(df, dir)
    (dir, EventStore.read(spark, dir).cache())
  }

  private def storeAiql(conf: AiqlConf = AiqlConf()) =
    new Aiql(spark, StorePath(storeDir), conf)
  private lazy val memAiql = new Aiql(spark, InMemory(events))

  for (name <- Seq("q01", "q04", "q08", "q10", "q19", "q20")) {
    test(s"$name store-backed execution equals in-memory execution") {
      val q = InvestigationQueries.byName(name)
      TestUtil.assertSameRows(storeAiql().query(q.aiql), memAiql.query(q.aiql), name)
    }
  }

  test("partition pruning does not change results") {
    val q = InvestigationQueries.byName("q04")
    TestUtil.assertSameRows(
      storeAiql(AiqlConf(partitionPruning = true)).query(q.aiql),
      storeAiql(AiqlConf(partitionPruning = false)).query(q.aiql),
      "pruning")
  }

  test("global constraints prune the store to one agent-day") {
    val pruned = EventStore.readPruned(spark, storeDir, Some(Seq(4)), Some(Seq("2023-08-01")))
    // count data files on disk (the cached store read would otherwise be
    // substituted into an identical plan, hiding the file relation)
    import scala.jdk.CollectionConverters._
    val onDisk = Files.walk(java.nio.file.Paths.get(storeDir)).iterator.asScala
      .count(_.toString.endsWith(".parquet"))
    assert(pruned.inputFiles.length * 4 < onDisk,
      s"pruned=${pruned.inputFiles.length} onDisk=$onDisk")
    assert(pruned.inputFiles.forall(f => f.contains("agent_id=4") && f.contains("day=2023-08-01")))
  }

  // q19 rebound to one host: a single-pattern query, so the only cache it
  // can add is its host pin (multi-pattern queries also pin a relevant set)
  private val q19 = InvestigationQueries.byName("q19").aiql
  private def onHosts(agents: String) = q19.replace("agentid in (1, 2, 3, 4)", s"agentid $agents")
  private def persisted = spark.sparkContext.getPersistentRDDs.size

  test("a multi-host query reuses the single-host pins") {
    val aiql = storeAiql()
    try {
      val perHost = (1 to 4).map(a => aiql.query(onHosts(s"= $a")))
      perHost.foreach(_.collect())
      val pinned = persisted
      val all = onHosts("in (1, 2, 3, 4)")
      assert(TestUtil.sparkJobs(spark)(aiql.query(all).collect()) == 1)
      assert(persisted == pinned)
      TestUtil.assertSameRows(aiql.query(all), perHost.reduce(_ union _), "union of hosts")
    } finally aiql.close()
  }

  test("multievent and anomaly queries share one loader's pins") {
    val aiql = storeAiql()
    try {
      aiql.query(InvestigationQueries.byName("q20").aiql).collect() // pins agent 4
      val pinned = persisted
      // no second count of agent 4: the multievent engine reuses the pin
      assert(TestUtil.sparkJobs(spark)(aiql.query(onHosts("= 4")).collect()) == 1)
      assert(persisted == pinned)
    } finally aiql.close()
  }

  test("store dedup keeps the attack trace intact") {
    val q = InvestigationQueries.byName("q13")
    assert(TestUtil.containsBinding(storeAiql().query(q.aiql), q.expect))
  }
}
