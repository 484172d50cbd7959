package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import Ast._
import repro.events.EventSchema

/** Engine configuration — each flag is one of the paper's domain-specific
  * optimizations, individually toggleable for the ablation bench (T3).
  *
  * @param selectivityOrdering execute the most selective pattern first
  *                            (§2.3 insight 1: prioritize pruning power)
  * @param exactSelectivity    measure pruning power by counting each
  *                            pattern's (cached) filtered scan; otherwise a
  *                            static heuristic over the predicate shape
  * @param partitionPruning    prune `(agent_id, day)` store partitions from
  *                            the global constraints
  */
final case class AiqlConf(
    selectivityOrdering: Boolean = true,
    exactSelectivity: Boolean = true,
    partitionPruning: Boolean = true,
    /** The paper's engine materializes small per-pattern results and probes
      * them instead of shuffling; the Spark analog is a broadcast-hash join.
      * Pattern frames whose measured count is at or below this threshold are
      * broadcast into the staged join (set < 0 to disable; the naive SQL
      * comparator has no stats and keeps default shuffle joins).
      */
    broadcastThreshold: Long = 200000,
)

/** Executes multievent AIQL queries with the paper's optimized scheduling:
  * one data query per event pattern, most-selective-first staged joins, and
  * broadcast probing with whichever side the statistics say is small —
  * instead of handing one big multi-join SQL to the default scheduler.
  * Spatial (per-host) parallelism is Spark's own: a multi-host query is one
  * plan over the union of per-host footprints (see [[BaseLoader]]), scanned
  * one task per partition.
  *
  * Result columns follow the `return` clause (shortcut aliases applied), so
  * results are directly comparable with the synthesized equivalent SQL.
  */
final class MultiEventEngine(loader: BaseLoader, conf: AiqlConf) {

  import MultiEventEngine._

  /** Run a multievent query and return the projected matches. */
  def execute(q: MultiEventQuery): DataFrame = {
    validate(q)
    executeSingle(q)
  }

  // ------------------------------------------------------------ validation

  private def validate(q: MultiEventQuery): Unit = {
    val aliases = q.events.map(_.alias)
    if (aliases.distinct.size != aliases.size)
      throw SemanticError(s"duplicate event aliases in ${aliases.mkString(",")}")
    val kinds = scala.collection.mutable.Map[String, String]()
    for (e <- q.events; (v, k, _) <- Ast.entityOccurrences(e)) {
      kinds.get(v).foreach { k0 =>
        if (k0 != k) throw SemanticError(s"variable '$v' used as both $k0 and $k")
      }
      kinds(v) = k
    }
    for (t <- q.temps; side <- Seq(t.left, t.right))
      if (!aliases.contains(side))
        throw SemanticError(s"temporal relation references undeclared event '$side'")
  }

  // --------------------------------------------------------------- caches

  /** Per-query relevant-set caches, rotated so at most a handful stay
    * cached (a result DataFrame may be collected after the next query has
    * begun — unpersisting merely degrades that to recompute).
    */
  private val relevantCaches = new java.util.ArrayDeque[DataFrame]()
  private def registerRelevant(df: DataFrame): DataFrame = {
    relevantCaches.synchronized {
      relevantCaches.addLast(df)
      while (relevantCaches.size > 8) relevantCaches.pollFirst().unpersist()
    }
    df
  }

  /** Release the relevant-set caches, the only data this engine caches. */
  def close(): Unit = {
    relevantCaches.synchronized {
      while (!relevantCaches.isEmpty) relevantCaches.pollFirst().unpersist()
    }
  }

  // ------------------------------------------------------------ execution

  private def executeSingle(q: MultiEventQuery): DataFrame = {
    val (base, footRows) = loader.baseEventsWithSize(q.globals)
    val n = q.events.size
    val preds = q.events.map(PatternCompiler.compile)

    // Cost-based fast path: a footprint whose Parquet footers say it is
    // small (one host-day or similar) needs no per-pattern statistics —
    // every leg is bounded by the footprint, so everything can be broadcast
    // and ordered heuristically, and the whole query runs as one action.
    val smallFoot = conf.exactSelectivity && conf.broadcastThreshold >= 0 &&
      footRows.exists(_ <= conf.broadcastThreshold)

    // Relevant-set extraction: one pass over the (pruned) base keeps only
    // rows matching SOME pattern, projected to the columns the query can
    // touch; the statistics aggregation and every join leg then read this
    // much smaller cached set instead of re-scanning the base per pattern.
    // (A small footprint skips the cache: each leg scans its few files
    // within the query's one action.)
    val cols = usedColumns(q)
    val relevant =
      if (n <= 1 || smallFoot) base.select(cols.map(col): _*)
      else registerRelevant(
        base.filter(preds.reduce(_ || _)).select(cols.map(col): _*).cache())

    // one data query per pattern, columns prefixed with the event alias
    def prefixed(i: Int, extra: Column): DataFrame = {
      val a = q.events(i).alias
      relevant.filter(preds(i) && extra)
        .select(cols.map(c => col(c).as(s"${a}__$c")): _*)
    }

    // pruning-power statistics: ALL pattern counts from one scan (which
    // also materializes the relevant-set cache) — the engine's analog of
    // consulting DB stats. Skipped when they cannot influence anything.
    val wantStats = conf.exactSelectivity && n > 1 && !smallFoot &&
      (conf.selectivityOrdering || conf.broadcastThreshold >= 0)
    val counts: Array[Long] =
      if (!wantStats) Array.fill(n)(-1L)
      else {
        val aggs = preds.map(p => count(when(p, lit(1))))
        relevant.agg(aggs.head, aggs.tail: _*).collect()(0)
          .toSeq.map(_.asInstanceOf[Long]).toArray
      }

    val order: Seq[Int] =
      if (!conf.selectivityOrdering) q.events.indices
      else if (wantStats) q.events.indices.sortBy(i => (counts(i), i))
      else Selectivity.heuristicOrder(q.events)

    val firstOcc = firstOccurrences(q.events)

    var state: DataFrame = null
    var stateEst: Long = -1L // running size upper-bound estimate of `state`
    val knownEmpty = counts.contains(0L) // a pattern with no rows empties the join
    val bound = scala.collection.mutable.LinkedHashSet[String]()
    val boundVars = scala.collection.mutable.Map[String, (String, String, String)]()
    val remaining = scala.collection.mutable.ArrayBuffer(order: _*)

    while (remaining.nonEmpty) {
      // prefer patterns connected to the bound set (shared vars or temporal
      // relation — both yield join conditions), in selectivity order
      val pickPos = remaining.indexWhere(i => connected(q, i, bound, boundVars)) match {
        case -1 => 0
        case p  => p
      }
      val i = remaining.remove(pickPos)
      val e = q.events(i)
      val df = prefixed(i, lit(!knownEmpty))

      if (state == null) { state = df; stateEst = counts(i) }
      else {
        // Stats-gated materialize-and-probe (the paper's engine keeps small
        // intermediate results in memory and probes large patterns with
        // them): broadcast whichever side the statistics say is small — the
        // new pattern, or the accumulated intermediate state. `stateEst` is
        // the running upper-bound estimate min(counts of joined patterns);
        // joins can only multiply through shared keys, which the staged
        // order keeps rare, so the smaller measured side wins the hint.
        def small(x: Long) = conf.broadcastThreshold >= 0 &&
          ((x >= 0 && x <= conf.broadcastThreshold) || (x < 0 && smallFoot))
        val (l, r) =
          if (small(counts(i)) && (!small(stateEst) || counts(i) <= stateEst))
            (state, broadcast(df))
          else if (small(stateEst)) (broadcast(state), df)
          else (state, df)
        joinCondition(q, i, bound, boundVars) match {
          case Some(c) => state = l.join(r, c, "inner")
          case None    => state = l.crossJoin(r)
        }
        if (counts(i) >= 0)
          stateEst = if (stateEst < 0) counts(i) else math.min(stateEst, counts(i))
      }

      bound += e.alias
      for ((v, k, r) <- Ast.entityOccurrences(e) if !boundVars.contains(v))
        boundVars(v) = (e.alias, k, r)
    }

    project(q, state, firstOcc)
  }

  // --------------------------------------------------------------- pieces

  /** Schema columns a query can reference: pattern predicates, join keys,
    * temporal/aggregation inputs, and every return/group/having leaf —
    * computed so the relevant-set cache stores only what is needed.
    */
  private def usedColumns(q: MultiEventQuery): Seq[String] = {
    val s = scala.collection.mutable.Set("op", "obj_type", "ts", "agent_id")
    val firstOcc = firstOccurrences(q.events)
    def exprCols(e: Expr, resolveVar: String => Option[(String, String)]): Unit = e match {
      case VarRef(v) => resolveVar(v).foreach { case (k, r) => s += Attrs.entityAttr(k, r, "") }
      case AttrRef(v, a) if q.events.exists(_.alias == v) => s += Attrs.eventAttr(a)
      case AttrRef(v, a) =>
        resolveVar(v).foreach { case (k, r) => s += Attrs.entityAttr(k, r, a) }
      case Bin(_, l, r) => exprCols(l, resolveVar); exprCols(r, resolveVar)
      case Not(x)       => exprCols(x, resolveVar)
      case Agg(_, a)    => exprCols(a, resolveVar)
      case _            =>
    }
    for (e <- q.events) {
      s += Attrs.joinKey(e.subj.kind, "subj")
      s += Attrs.joinKey(e.obj.kind, "obj")
      for (f <- e.subj.filter) exprCols(f, v => Some((e.subj.kind, "subj")))
      for (f <- e.obj.filter)  exprCols(f, v => Some((e.obj.kind, "obj")))
    }
    val globalResolve = (v: String) => firstOcc.get(v).map { case (_, k, r) => (k, r) }
    for (r <- q.returns) exprCols(r.expr, globalResolve)
    for (g <- q.groupBy) exprCols(g, globalResolve)
    for (h <- q.having)  exprCols(h, globalResolve)
    EventSchema.columns.filter(s.contains)
  }

  private def firstOccurrences(events: Seq[EventPat]): Map[String, (String, String, String)] = {
    val m = scala.collection.mutable.LinkedHashMap[String, (String, String, String)]()
    for (e <- events; (v, k, r) <- Ast.entityOccurrences(e) if !m.contains(v))
      m(v) = (e.alias, k, r)
    m.toMap
  }

  private def connected(q: MultiEventQuery, i: Int, bound: collection.Set[String],
                        boundVars: collection.Map[String, (String, String, String)]): Boolean = {
    val e = q.events(i)
    val sharesVar = Ast.entityOccurrences(e).exists { case (v, _, _) => boundVars.contains(v) }
    val hasTemp = q.temps.exists(t =>
      (t.left == e.alias && bound(t.right)) || (t.right == e.alias && bound(t.left)))
    sharesVar || hasTemp
  }

  /** Join condition between pattern i and the already-bound state: entity
    * identity equalities (plus `agent_id` equality for host-local entities)
    * and any temporal relations whose other side is bound.
    */
  private def joinCondition(q: MultiEventQuery, i: Int, bound: collection.Set[String],
                            boundVars: collection.Map[String, (String, String, String)]): Option[Column] = {
    val e = q.events(i)
    var cond: Option[Column] = None
    def and(c: Column): Unit = cond = Some(cond.fold(c)(_ && c))

    for ((v, k, r) <- Ast.entityOccurrences(e); (bEvt, bKind, bRole) <- boundVars.get(v)) {
      if (bEvt != e.alias) {
        and(col(s"${bEvt}__${Attrs.joinKey(bKind, bRole)}") ===
            col(s"${e.alias}__${Attrs.joinKey(k, r)}"))
        if (Attrs.isHostLocal(k))
          and(col(s"${bEvt}__agent_id") === col(s"${e.alias}__agent_id"))
      }
    }
    for (t <- q.temps) {
      val pair: Option[(String, String)] =
        if (t.left == e.alias && bound(t.right)) Some((t.left, t.right))
        else if (t.right == e.alias && bound(t.left)) Some((t.left, t.right))
        else None
      for ((l, r) <- pair) {
        val (early, late) = if (t.rel == "before") (l, r) else (r, l)
        and(col(s"${early}__ts") < col(s"${late}__ts"))
      }
    }
    cond
  }

  // ----------------------------------------------------------- projection

  /** Resolve `return` / `group by` items against the joined, prefixed state. */
  private def project(q: MultiEventQuery, state: DataFrame,
                      firstOcc: Map[String, (String, String, String)]): DataFrame = {
    val aliases = q.events.map(_.alias).toSet

    def resolveLeaf(e: Expr): Column = e match {
      case VarRef(v) if aliases(v) =>
        throw SemanticError(s"bare event alias '$v' is not returnable; use $v.<attr>")
      case VarRef(v) =>
        val (evt, kind, role) = firstOcc.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(s"${evt}__${Attrs.entityAttr(kind, role, "")}")
      case AttrRef(v, a) if aliases(v) => col(s"${v}__${Attrs.eventAttr(a)}")
      case AttrRef(v, a) =>
        val (evt, kind, role) = firstOcc.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(s"${evt}__${Attrs.entityAttr(kind, role, a)}")
      case other => throw SemanticError(s"unresolvable expression $other")
    }

    val hasAgg = q.returns.exists(r => ExprEval.hasAgg(r.expr))
    if (!hasAgg) {
      val cols = q.returns.map(r =>
        ExprEval.toColumn(r.expr, resolveLeaf).as(r.alias.getOrElse(defaultAlias(r.expr))))
      state.select(cols: _*)
    } else {
      if (q.groupBy.isEmpty && q.returns.exists(r => !ExprEval.hasAgg(r.expr)))
        throw SemanticError("non-aggregate return items require 'group by'")
      // name group keys after the return item that matches them (or a
      // positional name), aggregate the rest
      def keyName(g: Expr): String =
        q.returns.find(_.expr == g).flatMap(_.alias)
          .getOrElse(defaultAlias(g))
      val keyCols = q.groupBy.map(g => ExprEval.toColumn(g, resolveLeaf).as(keyName(g)))
      val aggCols = q.returns.collect {
        case ReturnItem(e, al) if ExprEval.hasAgg(e) =>
          aggColumnOf(e, resolveLeaf).as(al.getOrElse(defaultAlias(e)))
      }
      val grouped =
        if (keyCols.isEmpty) state.agg(aggCols.head, aggCols.tail: _*)
        else state.groupBy(keyCols: _*).agg(aggCols.head, aggCols.tail: _*)
      val outNames = q.returns.map { r =>
        if (ExprEval.hasAgg(r.expr)) r.alias.getOrElse(defaultAlias(r.expr))
        else {
          val g = q.groupBy.find(_ == r.expr).getOrElse(
            throw SemanticError(s"return item ${r.expr} is neither aggregated nor grouped"))
          keyName(g)
        }
      }
      grouped.select(outNames.map(col): _*)
    }
  }

  private def aggColumnOf(e: Expr, resolve: Expr => Column): Column = e match {
    case Agg("count", VarRef(_)) => count(lit(1))
    case Agg(f, arg)             => ExprEval.aggColumn(f, ExprEval.toColumn(arg, resolve))
    case other => throw SemanticError(s"expected aggregate, got $other")
  }
}

object MultiEventEngine {

  final case class SemanticError(msg: String) extends RuntimeException(msg)

  /** Default output-column names for unaliased return items — the engine and
    * [[SqlSynthesizer]] must agree exactly so results are diffable.
    */
  def defaultAlias(e: Expr): String = e match {
    case VarRef(v)     => v
    case AttrRef(v, a) => s"${v}_$a"
    case Agg(f, arg)   => s"${f}_${defaultAlias(arg)}"
    case _             => "expr"
  }
}
