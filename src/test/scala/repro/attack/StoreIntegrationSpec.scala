package repro.attack

import java.nio.file.Files

import repro.{SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.events.EventStore

/** The full storage path: events written to the partitioned store, queried
  * through [[StorePath]] with partition pruning — results must match the
  * in-memory execution, pruning must actually reduce scanned files, and a
  * footprint is sized from Parquet footers without a Spark job or a cache.
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

  private lazy val baseline = new NaiveSqlBaseline(spark, events)

  /** A fresh loader's base and footprint rows for a query's globals. */
  private def footprint(text: String) =
    new BaseLoader(spark, StorePath(storeDir)).baseEventsWithSize(Parser.parse(text).globals)
  private def onePattern(globals: String) = s"$globals\nproc p read file f as evt\nreturn p, f, evt.ts"

  for (name <- Seq("q01", "q05")) {
    test(s"a cold host-scoped query ($name) starts exactly one Spark job") {
      val aiql = storeAiql()
      try assert(TestUtil.sparkJobs(spark)(
        aiql.query(InvestigationQueries.byName(name).aiql).collect()) == 1)
      finally aiql.close()
    }
  }

  for ((what, globals, agents, days) <- Seq(
      ("one host-day", """agentid = 4 (at "08/01/2023")""", Seq(4), Seq("2023-08-01")),
      ("one host over two days", """agentid = 4 (from "08/01/2023" to "08/03/2023")""",
        Seq(4), Seq("2023-08-01", "2023-08-02")),
      ("four hosts", """agentid in (1, 2, 3, 4) (at "08/02/2023")""", Seq(1, 2, 3, 4), Seq("2023-08-02")),
      ("a host with no data", """agentid = 99 (at "08/01/2023")""", Seq(99), Seq("2023-08-01")))) {
    test(s"footprint rows of $what equal the pruned scan's count") {
      val rows = footprint(onePattern(globals))._2
      assert(rows.contains(EventStore.readPruned(spark, storeDir, Some(agents), Some(days)).count()))
    }
  }

  test("a host with no data has an empty footprint and an empty result") {
    val text = onePattern("""agentid = 99 (at "08/01/2023")""")
    assert(footprint(text)._2.contains(0L))
    assert(storeAiql().query(text).collect().isEmpty)
  }

  test("a from/to window spanning midnight reads both days") {
    val text = onePattern("""agentid = 4 (from "08/01/2023 23:00:00" to "08/02/2023 01:00:00")""")
    val files = footprint(text)._1.inputFiles
    assert(Seq("day=2023-08-01", "day=2023-08-02").forall(d => files.exists(_.contains(d))))
    val res = storeAiql().query(text)
    assert(res.collect().nonEmpty)
    TestUtil.assertSameRows(res, baseline.execute(text), "midnight")
  }

  for ((what, window) <- Seq(
      ("two different days", """(at "08/01/2023") (at "08/02/2023")"""),
      ("from after to", """(from "08/02/2023" to "08/01/2023")"""))) {
    test(s"an empty time window ($what) reads no partition") {
      val text = onePattern(s"agentid = 4 $window")
      val (base, rows) = footprint(text)
      assert(base.inputFiles.isEmpty && rows.contains(0L))
      val res = storeAiql().query(text)
      assert(res.collect().isEmpty)
      TestUtil.assertSameRows(res, baseline.execute(text), what)
    }
  }

  // q19 rebound to one host: a single-pattern query
  private val q19 = InvestigationQueries.byName("q19").aiql
  private def onHosts(agents: String) = q19.replace("agentid in (1, 2, 3, 4)", s"agentid $agents")

  private def persisted = spark.sparkContext.getPersistentRDDs.size

  // The loader no longer pins hosts: the next two tests keep their names and
  // check that the later query is still one Spark job and pins nothing
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
      aiql.query(InvestigationQueries.byName("q20").aiql).collect()
      val pinned = persisted
      // no footprint job for agent 4 on the multievent query either
      assert(TestUtil.sparkJobs(spark)(aiql.query(onHosts("= 4")).collect()) == 1)
      assert(persisted == pinned)
    } finally aiql.close()
  }

  // q08 is day-wide with four patterns, so it caches a relevant set
  test("host-scoped investigation queries leave no RDD persisted") {
    val aiql = storeAiql()
    try {
      val persisted = spark.sparkContext.getPersistentRDDs.keySet
      for (q <- InvestigationQueries.all if q.name != "q08") aiql.query(q.aiql).collect()
      assert(spark.sparkContext.getPersistentRDDs.keySet == persisted)
    } finally aiql.close()
  }

  test("store dedup keeps the attack trace intact") {
    val q = InvestigationQueries.byName("q13")
    assert(TestUtil.containsBinding(storeAiql().query(q.aiql), q.expect))
  }
}
