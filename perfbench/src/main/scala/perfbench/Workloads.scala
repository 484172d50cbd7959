package perfbench

import scala.util.Random
import scala.util.matching.Regex

import repro.attack.{AttackDataGen, InvestigationQueries}
import repro.core.{Parser, Times}
import repro.events.EventSchema

/** One query the analyst submits. `template` names the investigation query
  * it was made from; `expect` is the ground-truth binding the result must
  * contain (known only for the queries exactly as written).
  */
final case class Submission(template: String, text: String, expect: Map[String, String])

/** The generated query streams. Each workload is one analyst running one
  * client in a closed loop: a query is submitted only after the previous
  * one's rows have been collected.
  */
object Workloads {

  val names: Seq[String] = Seq("session", "hunt")

  /** `session`: q01–q20 exactly as written, in order. An investigation
    * revisits the same few host-days, so after the first pass every
    * footprint is pinned in the engine's hot-partition cache.
    */
  val sessionPass: Seq[Submission] =
    InvestigationQueries.all.map(q => Submission(q.name, q.aiql, q.expect))

  /** A host-day: (agent id, day index 0..2 of the generated trace). */
  type Footprint = (Int, Int)

  /** Host-days a query's globals pin in the engine's cache (agent-bound
    * queries only; a day-wide query is not cached).
    */
  def footprints(text: String): Seq[Footprint] = {
    val g = Parser.parse(text).globals
    val days = Times.window(g).map { case (s, e) => Times.daysOf(s, e) }.getOrElse(Nil)
    for (a <- Times.agents(g).getOrElse(Nil); d <- days) yield (a, dayIndex(d))
  }

  private val t0 = Times.parseMs(AttackDataGen.Day1)
  private val fmt = java.time.format.DateTimeFormatter.ofPattern("MM/dd/yyyy")
  private def dayDate(i: Int) =
    java.time.Instant.ofEpochMilli(t0 + i * EventSchema.DayMillis)
      .atZone(java.time.ZoneOffset.UTC).toLocalDate
  private def dayIndex(isoDay: String): Int =
    (0 until 3).find(i => dayDate(i).toString == isoDay).getOrElse(
      throw new IllegalArgumentException(s"day $isoDay is outside the trace"))

  private val AtClause = """\(at "[^"]*"\)""".r
  private val AgentLine = """(?m)^agentid = \d+$""".r

  /** A template is host-scoped when it names exactly one agent. */
  def hostScoped(text: String): Boolean = AgentLine.findFirstIn(text).isDefined

  /** Rebind a template by text substitution: its `(at "…")` day becomes
    * `day`, and its `agentid` line becomes `agentid = a`, or is dropped for
    * a day-wide variant.
    */
  def rebind(text: String, agent: Option[Int], day: Int): String = {
    val dated = AtClause.replaceAllIn(text,
      Regex.quoteReplacement(s"""(at "${dayDate(day).format(fmt)}")"""))
    agent match {
      case Some(a) => AgentLine.replaceAllIn(dated, s"agentid = $a")
      case None    => dated.linesIterator.filterNot(_.startsWith("agentid")).mkString("\n")
    }
  }

  /** Templates whose `hunt` instances are always day-wide sweeps: those
    * without a single agent (q08, q19) and four IOC checks worth running
    * across the whole enterprise — traffic to the attacker's address (q03,
    * q07, q18) and files written by a known credential dumper (q11).
    */
  val DayWide: Set[String] = Set("q03", "q07", "q08", "q11", "q18", "q19")

  /** `hunt`: an IOC sweep across the enterprise. Each 20-query cycle is a
    * seeded permutation of the 20 templates. A host-scoped template is
    * rebound to the next host-day, in a seeded order, that no earlier query
    * of the investigation touched; the [[DayWide]] templates run as day-wide
    * variants on a seeded day. When every host-day has been touched, a new
    * investigation starts (`next` returns `fresh = true`) and the caller
    * replaces the engine, so host-scoped queries keep missing its cache.
    */
  final class Hunt(hosts: Int, touched: Set[Footprint], rng: Random) {
    private val all: Seq[Footprint] = for (a <- 1 to hosts; d <- 0 until 3) yield (a, d)
    private var pool: List[Footprint] = rng.shuffle(all.filterNot(touched)).toList
    private var cycle: List[InvestigationQueries.Q] = Nil
    var investigations = 1

    /** The next query, and whether it starts a new investigation. */
    def next(): (Submission, Boolean) = {
      if (cycle.isEmpty) cycle = rng.shuffle(InvestigationQueries.all).toList
      val q = cycle.head
      cycle = cycle.tail
      if (DayWide(q.name)) (Submission(q.name, rebind(q.aiql, None, rng.nextInt(3)), Map.empty), false)
      else {
        val fresh = pool.isEmpty
        if (fresh) { pool = rng.shuffle(all).toList; investigations += 1 }
        val (a, d) = pool.head
        pool = pool.tail
        (Submission(q.name, rebind(q.aiql, Some(a), d), Map.empty), fresh)
      }
    }
  }
}
