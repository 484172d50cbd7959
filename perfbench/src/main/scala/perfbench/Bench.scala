package perfbench

import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest

import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.attack.AttackDataGen
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.core.Ast._
import repro.events.{EventSchema, EventStore}

/** The repository benchmark: one analyst, one client, closed loop, through
  * the public entry points (`AttackDataGen`, `EventStore`, `Parser`, `Aiql`,
  * `NaiveSqlBaseline`).
  *
  * {{{
  * perfbench.Bench --workload session|hunt --seed N --seconds S --trace 0|1
  * }}}
  *
  * The last line of standard output is the JSON result; the lines before it
  * are a readable report. `--trace 0` reports the end-to-end metrics,
  * `--trace 1` the per-layer ones (BENCHMARK.json lists both).
  */
object Bench {

  // ---------------------------------------------------------------- shape
  // Fixed for every run; changing any of these redefines the benchmark.

  /** Scale factor of the trace: 6 hosts × 3 days = 18 host-days of ~11k
    * events each (the host-day size does not depend on the scale factor).
    */
  val Sf = 0.04
  /** Share of rows re-sent before ingest (same dedup key, new event id). */
  val ResendShare = 0.10
  /** Re-sent rows get `event_id + ResendIdBase`: above every generated id. */
  val ResendIdBase = 1000000000000L
  /** Spark shuffle partitions per core of `local[N]`. */
  val PartitionsPerCore = 2

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\nusage: --workload ${Workloads.names.mkString("|")} " +
      "--seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  def parseArgs(args: Array[String]): Args = {
    if (args.length % 2 != 0) usage("arguments come in --key value pairs")
    val m = args.grouped(2).map(p => p(0) -> p(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    m.keys.find(!known(_)).foreach(k => usage(s"unknown argument $k"))
    def get(k: String) = m.getOrElse(k, usage(s"missing $k"))
    val w = get("--workload")
    if (!Workloads.names.contains(w)) usage(s"unknown workload $w")
    val seed = get("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val secs = get("--seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    Args(w, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val work = Paths.get(sys.props.getOrElse("perfbench.work", "perfbench/target/work")).toAbsolutePath
    Files.createDirectories(work)
    val dir = Files.createTempDirectory(work, s"${args.workload}-")
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.autoBroadcastJoinThreshold", -1) // as the repository's entry points
      .config("spark.sql.shuffle.partitions", PartitionsPerCore * cores)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("warehouse").toString)
      .getOrCreate()
    // JVM start to a usable session: the first part of the set-up
    val sessionS = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    try println(new Run(spark, args, dir, cores, sessionS).execute())
    finally {
      spark.stop()
      deleteTree(dir)
    }
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
      finally s.close()
    }

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Linear-interpolation quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val h = (s.size - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Hash of a result in canonical form: columns sorted by name, values
    * stringified as the repository's test helper `TestUtil.canon` does, rows
    * sorted. Equal hashes mean the same multiset of rows.
    */
  def canonHash(cols: Seq[String], rows: Array[Row]): String = {
    val order = cols.indices.sortBy(cols(_))
    def cell(v: Any): String = v match {
      case null                     => "∅"
      case d: Double                => f"$d%.6f"
      case f: Float                 => f"${f.toDouble}%.6f"
      case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
      case x                        => x.toString
    }
    val lines = rows.map(r => order.map(i => cell(r.get(i))).mkString("\u0001")).sorted
    val md = MessageDigest.getInstance("SHA-256")
    md.update(order.map(cols(_)).mkString("\u0001").getBytes("UTF-8"))
    lines.foreach(l => md.update(("\n" + l).getBytes("UTF-8")))
    md.digest().map("%02x".format(_)).mkString
  }

  /** Does some row bind every expected column to its value? */
  def hasBinding(cols: Seq[String], rows: Array[Row], expect: Map[String, String]): Boolean =
    expect.isEmpty || expect.keys.forall(cols.contains) && rows.exists { r =>
      expect.forall { case (k, v) => Option(r.get(cols.indexOf(k))).map(_.toString).contains(v) }
    }

  /** A finite number with all its digits, as JSON. */
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric is not finite: $v")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
}

/** One executed AIQL query: timings in ns, and what its result looked like. */
final case class Exec(
    sub: Submission, group: String, traced: Boolean,
    latency: Long, parse: Long, call: Long, collect: Long,
    rows: Long, hash: String, bindingOk: Boolean, error: Option[String])

final class Run(spark: SparkSession, args: Bench.Args, dir: Path, cores: Int, sessionS: Double) {
  import Bench._

  private val sc = spark.sparkContext
  private val tracer: Option[Tracer] = if (args.trace) Some(new Tracer) else None
  tracer.foreach(sc.addSparkListener)
  private val runStart = System.nanoTime()
  private val hosts = AttackDataGen.hosts(Sf)
  private val storeDir = dir.resolve("store")
  private val flatDir = dir.resolve("flat")

  private def span[A](name: String, group: String, on: Boolean = true)(f: => A): A =
    tracer match {
      case Some(t) if on => t.record(name, group)(f)
      case _             => f
    }

  private def inGroup[A](group: String)(f: => A): A = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try f finally sc.clearJobGroup()
  }

  // ---------------------------------------------------------------- set-up

  private var input: DataFrame = _
  private var inputRows, resentRows = 0L
  private var generateNs, writeNs, writeFlatNs, rewriteNs = 0L

  /** Generate the seeded trace, append the re-sent rows, and ingest it into
    * the store (both partitioned layouts) and the flat comparator copy.
    */
  private def ingest(): Unit = inGroup("setup") {
    generateNs = timed(span("attack.generate", "setup") {
      val trace = AttackDataGen.events(spark, Sf, args.seed)
      val again = trace
        .filter(pmod(xxhash64(col("event_id"), lit(args.seed)), lit(1000L)) <
                lit((ResendShare * 1000).toLong))
        .withColumn("event_id", col("event_id") + lit(ResendIdBase))
      input = trace.unionByName(again).cache()
      val r = input.agg(count(lit(1)), count(when(col("event_id") >= ResendIdBase, 1))).head()
      inputRows = r.getLong(0)
      resentRows = r.getLong(1)
    })._2
    writeNs = timed(span("events.write", "setup")(EventStore.write(input, storeDir.toString)))._2
    writeFlatNs = timed(span("events.write_flat", "setup")(EventStore.writeFlat(input, flatDir.toString)))._2
    // the same input again, to a scratch directory, by a warm JVM
    val again = dir.resolve("rewrite")
    rewriteNs = timed(span("events.rewrite", "setup")(EventStore.write(input, again.toString)))._2
    deleteTree(again)
  }

  /** Rows and an order-independent content hash of a frame of events. */
  private def signature(df: DataFrame): (Long, Long) = {
    val h = pmod(xxhash64(EventSchema.columns.map(col): _*), lit(2147483647L))
    val r = df.agg(count(lit(1)), coalesce(sum(h), lit(0L))).head()
    (r.getLong(0), r.getLong(1))
  }

  /** The ingest check: every layout holds exactly the generated trace. The
    * re-sent rows differ from their originals only in a larger event id, so
    * dedup must keep each original and drop its copy. Returns the failures
    * and the number of rows stored.
    */
  private def checkIngest(): (Seq[String], Long) = inGroup("check") {
    val expected = signature(input.filter(col("event_id") < ResendIdBase))
    val layouts = Seq(
      "by_day" -> EventStore.read(spark, storeDir.toString),
      "by_agent_day" -> EventStore.readPruned(spark, storeDir.toString, Some(1 to hosts), None),
      "flat" -> EventStore.readFlat(spark, flatDir.toString))
    val bad = layouts.flatMap { case (name, df) =>
      val got = signature(df)
      if (got == expected) None
      else Some(s"ingest: layout $name holds ${got._1} rows (content hash ${got._2}), " +
        s"expected ${expected._1} (content hash ${expected._2})")
    }
    (bad, expected._1)
  }

  /** On-disk bytes of one store layout and its number of Parquet files. */
  private def layoutSize(layout: String): (Long, Long) = {
    val s = Files.walk(storeDir.resolve(layout))
    try {
      val fs = s.filter(Files.isRegularFile(_)).toArray.map(_.asInstanceOf[Path])
      (fs.map(Files.size).sum, fs.count(_.getFileName.toString.endsWith(".parquet")).toLong)
    } finally s.close()
  }

  // --------------------------------------------------------------- queries

  private var aiql: Aiql = _
  private var baseline: NaiveSqlBaseline = _
  private var nQueries = 0

  private def compile(text: String): Query = Parser.parse(text) match {
    case d: DependencyQuery => DependencyCompiler.compile(d)
    case q                  => q
  }

  /** One AIQL query from text to collected rows, in its own job group.
    * A traced query also times the store's file listing for its globals:
    * the `EventStore.readPruned` call the engine makes on a cache miss.
    */
  private def runAiql(sub: Submission, traced: Boolean): Exec = {
    val group = f"aiql:$nQueries%05d:${sub.template}"
    nQueries += 1
    inGroup(group) {
      val t0 = System.nanoTime()
      try {
        val q = span("core.parse", group, traced)(compile(sub.text))
        val t1 = System.nanoTime()
        val df = span("core.query", group, traced)(aiql.execute(q))
        val t2 = System.nanoTime()
        val rows = span("core.collect", group, traced)(df.collect())
        val t3 = System.nanoTime()
        if (traced) span("events.read_pruned", group) {
          EventStore.readPruned(spark, storeDir.toString, Times.agents(q.globals),
            Times.window(q.globals).map { case (s, e) => Times.daysOf(s, e) })
        }
        val cols = df.columns.toSeq
        Exec(sub, group, traced, t3 - t0, t1 - t0, t2 - t1, t3 - t2, rows.length,
          canonHash(cols, rows), hasBinding(cols, rows, sub.expect), None)
      } catch {
        case NonFatal(e) =>
          Exec(sub, group, traced, System.nanoTime() - t0, 0, 0, 0, 0, "", false, Some(e.toString))
      }
    }
  }

  /** The comparator on the same text, timed from text to collected rows:
    * (ns, result hash), or the error it threw.
    */
  private def runSql(text: String, group: String, traced: Boolean): Either[String, (Long, String)] =
    inGroup(group) {
      try {
        val ((cols, rows), ns) = timed {
          val df = span("baseline.execute", group, traced)(baseline.execute(text))
          (df.columns.toSeq, span("baseline.collect", group, traced)(df.collect()))
        }
        Right((ns, canonHash(cols, rows)))
      } catch { case NonFatal(e) => Left(e.toString) }
    }

  // ------------------------------------------------------------------ run

  def execute(): String = {
    println(f"env: cores=$cores master=${sc.master} driver_heap_mb=${Runtime.getRuntime.maxMemory / 1048576} " +
      f"shuffle_partitions=${PartitionsPerCore * cores} sf=$Sf hosts=$hosts host_days=${hosts * 3} " +
      f"seed=${args.seed} workload=${args.workload} seconds=${args.seconds} " +
      f"trace=${if (args.trace) 1 else 0} commit=${sys.props.getOrElse("perfbench.commit", "unknown")} " +
      s"sources=${sys.props.getOrElse("perfbench.sources", "unknown")} spark=${spark.version}")

    ingest()
    aiql = new Aiql(spark, StorePath(storeDir.toString))
    baseline = new NaiveSqlBaseline(spark, EventStore.readFlat(spark, flatDir.toString))
    println(f"set-up: session=$sessionS%.3f s generate=${generateNs / 1e9}%.3f s " +
      f"write=${writeNs / 1e9}%.3f s write_flat=${writeFlatNs / 1e9}%.3f s rewrite=${rewriteNs / 1e9}%.3f s")

    // warm-up: one session pass, which pins the session's host-days and
    // compiles each template's plans once
    val warm0 = System.nanoTime()
    val warm = Workloads.sessionPass.map(runAiql(_, traced = false))
    val warmS = (System.nanoTime() - warm0) / 1e9
    println(f"warm-up: 1 session pass in $warmS%.3f s")
    // the set-up as the user waits for it; the rewrite is not part of it
    val setupS = sessionS + (generateNs + writeNs + writeFlatNs) / 1e9 + warmS

    // the timed loop: whole 20-query cycles until --seconds have passed, so
    // every run measures the same mix of templates; a traced run makes at
    // least two, tracing every other query with the parity flipped in the
    // second, so that each template has a traced and an untraced instance
    val execs = mutable.ArrayBuffer[Exec]()
    val hunt = new Workloads.Hunt(hosts,
      Workloads.sessionPass.flatMap(s => Workloads.footprints(s.text)).toSet, new Random(args.seed))
    val loop0 = System.nanoTime()
    val deadline = loop0 + args.seconds * 1000000000L
    var k = 0
    while (System.nanoTime() < deadline || k % 20 != 0 || (args.trace && k < 40)) {
      val sub = args.workload match {
        case "session" => Workloads.sessionPass(k % 20)
        case "hunt" =>
          val (s, fresh) = hunt.next()
          if (fresh) { aiql.close(); aiql = new Aiql(spark, StorePath(storeDir.toString)) }
          s
      }
      execs += runAiql(sub, traced = args.trace && (k + k / 20) % 2 == 1)
      k += 1
    }
    val loopS = (System.nanoTime() - loop0) / 1e9
    val cacheInfo = sc.getRDDStorageInfo
    val cachedBlocks = cacheInfo.map(_.numCachedPartitions.toLong).sum
    val cacheMb = cacheInfo.map(i => i.memSize + i.diskSize).sum / 1e6

    // results, and the comparator's run of each distinct text (its first,
    // timed), outside the timed loop
    val checks0 = System.nanoTime()
    val (ingestFailures, stored) = checkIngest()
    input.unpersist()
    val sqlRuns = mutable.LinkedHashMap[String, (String, Either[String, (Long, String)])]()
    for (e <- execs if !sqlRuns.contains(e.sub.text)) {
      val g = "sql:" + e.group.stripPrefix("aiql:")
      sqlRuns(e.sub.text) = (g, runSql(e.sub.text, g, args.trace))
    }
    val failures = mutable.ArrayBuffer[String](ingestFailures: _*)
    val failedGroups = mutable.LinkedHashSet[String]()
    for (e <- warm ++ execs) {
      val problem = (e.error, sqlRuns.get(e.sub.text).map(_._2)) match {
        case (Some(err), _)                          => Some(s"threw $err")
        case (_, Some(Left(err)))                    => Some(s"comparator threw $err")
        case (_, Some(Right((_, h)))) if h != e.hash => Some(s"${e.rows} rows differ from NaiveSqlBaseline")
        case _ if !e.bindingOk                       => Some(s"ground-truth binding ${e.sub.expect} missing")
        case _                                       => None
      }
      problem.foreach { p => failures += s"${e.group}: $p"; failedGroups += e.group }
    }
    failures.take(10).foreach(f => println(s"check failed: $f"))
    val checksS = (System.nanoTime() - checks0) / 1e9

    val ok = execs.filter(_.error.isEmpty).toSeq
    val lat = ok.map(_.latency / 1e6)
    val sqlMs = sqlRuns.values.collect { case (_, Right((ns, _))) => ns / 1e6 }
    val (agentDayBytes, agentDayFiles) = layoutSize("by_agent_day")
    val (dayBytes, dayFiles) = layoutSize("by_day")
    println(f"data: events_in=$inputRows resent=$resentRows stored=$stored " +
      f"store_bytes=${agentDayBytes + dayBytes} (by_agent_day=$agentDayBytes by_day=$dayBytes) " +
      f"files=${agentDayFiles + dayFiles}")
    val p = 1 - 10.0 / lat.size // highest percentile with 10 samples beyond it
    println(f"loop: ${execs.size} queries in $loopS%.3f s, ${ok.size} completed, " +
      f"investigations=${hunt.investigations}, median ${median(lat)}%.1f ms over n=${lat.size}" +
      (if (p >= 0.5) f", p${p * 100}%.0f ${quantile(lat, p)}%.1f ms (highest percentile with 10 samples beyond)"
       else "") +
      f", comparator ${sqlMs.sum / 1e3}%.3f s over ${sqlMs.size} distinct queries")
    if (args.workload == "session") {
      val passes = execs.grouped(20).filter(_.size == 20).map(_.map(_.latency).sum / 1e9).toSeq
      println(f"drift: warm-up pass $warmS%.3f s, timed passes " +
        passes.map(t => f"$t%.3f").mkString("[", ", ", "] s") +
        passes.headOption.map(p => f" (${(p / warmS - 1) * 100}%+.0f%% after warm-up)").getOrElse(""))
    }
    println("latencies_ms: " + execs.map(e => f"${e.latency / 1e6}%.0f").mkString(" "))
    println(f"phases: session=$sessionS%.1f s set-up=${(warm0 - runStart) / 1e9}%.1f s " +
      f"warm-up=$warmS%.1f s loop=$loopS%.1f s checks=$checksS%.1f s")

    val metrics = mutable.LinkedHashMap[String, (Double, String)]()
    def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
    if (!args.trace) {
      put("query_p50_ms", median(lat), "ms")
      // one client with no think time: completed queries per second of AIQL time
      put("queries_per_s", ok.size / ok.map(_.latency / 1e9).sum, "1/s")
      // Σ comparator ms / Σ AIQL ms over the loop's queries
      val paired = ok.flatMap(e => sqlRuns.get(e.sub.text).collect {
        case (_, Right((ns, _))) => (ns / 1e6, e.latency / 1e6)
      })
      put("sql_speedup", paired.map(_._1).sum / paired.map(_._2).sum, "ratio")
      // events written per second spent in EventStore.write, over both writes
      put("ingest_events_per_s", 2 * inputRows / ((writeNs + rewriteNs) / 1e9), "1/s")
      put("store_bytes_per_event", (agentDayBytes + dayBytes).toDouble / inputRows, "B/event")
      put("cache_mb_end", cacheMb, "MB")
      put("setup_s", setupS, "s")
    } else {
      val t = tracer.get
      t.drain(sc)
      perLayer(t, ok, sqlRuns.values.toSeq, stored, agentDayBytes, dayBytes,
        agentDayFiles + dayFiles, cachedBlocks, cacheMb, put)
      val out = dir.getParent.resolve(s"trace-${args.workload}-${args.seed}.jsonl")
      t.write(out, runStart)
      println(s"trace: ${t.spanList.size} spans and ${t.jobList.size} Spark jobs written to $out")
    }
    for ((n, (v, u)) <- metrics) println(f"metric $n = $v%.6f $u")

    val attempted = warm.size + execs.size + 1 // the queries, and the ingest
    val failed = failedGroups.size + (if (ingestFailures.isEmpty) 0 else 1)
    val body = metrics.map { case (n, (v, u)) =>
      s""""$n": {"value": ${num(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${failures.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }

  // ------------------------------------------------------------ per layer

  private def perLayer(t: Tracer, ok: Seq[Exec], sql: Seq[(String, Either[String, (Long, String)])],
                       stored: Long, agentDayBytes: Long, dayBytes: Long, files: Long,
                       cachedBlocks: Long, cacheMb: Double,
                       put: (String, Double, String) => Unit): Unit = {
    val n = ok.size.toDouble
    val spans = t.spanList
    val jobs = t.jobList
    def med(xs: Iterable[Double]) = if (xs.isEmpty) 0.0 else median(xs.toSeq)
    def named(name: String) = spans.filter(_.name == name)
    def selfMs(s: Span) = (s.dur - Tracer.covered(s, t.jobsOf(s, jobs))) / 1e6

    put("attack.generate_s", generateNs / 1e9, "s")
    put("events.write_s", writeNs / 1e9, "s")
    put("events.rewrite_s", rewriteNs / 1e9, "s")
    put("events.write_flat_s", writeFlatNs / 1e9, "s")
    put("events.dedup_keep_ratio", stored.toDouble / inputRows, "ratio")
    put("events.bytes_by_agent_day", agentDayBytes, "B")
    put("events.bytes_by_day", dayBytes, "B")
    put("events.files", files, "count")
    put("events.read_pruned_ms", med(named("events.read_pruned").map(_.dur / 1e6)), "ms")

    val aiqlGroups = ok.map(_.group).toSet
    val work = t.total(aiqlGroups)
    put("events.scan_records_per_query", work.inputRecords / n, "count")
    put("events.scan_bytes_per_query", work.inputBytes / n, "B")

    put("core.parse_us", med(ok.map(_.parse / 1e3)), "us")
    put("core.query_call_ms", med(ok.map(_.call / 1e6)), "ms")
    put("core.collect_ms", med(ok.map(_.collect / 1e6)), "ms")
    // the traced queries' wall time, parse to collect, that no Spark job covers
    val driver = ok.filter(_.traced).map { e =>
      val qs = spans.filter(s => s.group == e.group && s.name.startsWith("core."))
      selfMs(Span("query", e.group, qs.map(_.start).min, qs.map(_.end).max))
    }
    put("core.driver_ms", med(driver), "ms")
    put("core.rows_examined_per_row", work.inputRecords / math.max(1.0, ok.map(_.rows).sum.toDouble), "ratio")
    put("core.cached_blocks", cachedBlocks, "count")
    put("core.cache_mb", cacheMb, "MB")

    val templates = Workloads.sessionPass.map(_.template)
    val byTemplate = ok.groupBy(_.sub.template)
    for (q <- templates)
      put(s"$q.aiql_ms", med(byTemplate.getOrElse(q, Nil).map(_.latency / 1e6)), "ms")

    put("spark.jobs_per_query", work.jobs / n, "count")
    put("spark.stages_per_query", work.stages / n, "count")
    put("spark.tasks_per_query", work.tasks / n, "count")
    val jobsBy = byTemplate.map { case (q, es) => q -> es.map(e => t.counters(e.group).jobs) }
    for (q <- templates)
      put(s"$q.jobs", med(jobsBy.getOrElse(q, Nil).map(_.toDouble)), "count")
    // 1 when each template started the same number of jobs every time it ran
    put("spark.jobs_repeat", if (jobsBy.values.forall(_.distinct.size == 1)) 1 else 0, "bool")
    put("spark.shuffle_bytes_per_query", work.shuffleBytes / n, "B")

    val sqlOk = sql.collect { case (g, Right((ns, _))) => (g, ns) }
    val sqlJobs = t.total(sqlOk.map(_._1).toSet)
    put("baseline.query_ms", med(sqlOk.map(_._2 / 1e6)), "ms")
    put("baseline.jobs_per_query", sqlJobs.jobs / math.max(1.0, sqlOk.size.toDouble), "count")

    // self time per layer: a span's time not covered by the Spark jobs it
    // started (median over the spans of that name)
    for (name <- Seq("attack.generate", "events.write", "events.write_flat"))
      put(s"self.$name.s", med(named(name).map(selfMs)) / 1e3, "s")
    for (name <- Seq("core.parse", "core.query", "core.collect", "events.read_pruned",
                     "baseline.execute", "baseline.collect"))
      put(s"self.$name.ms", med(named(name).map(selfMs)), "ms")
    put("self.spark.job_ms", med(jobs.filter(j => aiqlGroups(j.group)).map(_.dur / 1e6)), "ms")

    // tracing overhead: traced minus untraced latency, per template
    val diffs = byTemplate.values.flatMap { es =>
      val (tr, un) = es.partition(_.traced)
      if (tr.isEmpty || un.isEmpty) None
      else Some(median(tr.map(_.latency / 1e6)) - median(un.map(_.latency / 1e6)))
    }
    put("trace.overhead_ms", med(diffs), "ms")
    put("trace.spans", spans.size + jobs.size, "count")
  }
}
