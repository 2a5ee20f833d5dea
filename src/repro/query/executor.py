"""Query execution over a database.

Execution is planner-driven since the indexed-query-engine change: the
``from`` source and ``where`` AST go to :mod:`repro.query.planner`, which
picks an access path (full scan, equality index, range index) and hands
back candidate objects in scan order.  The full ``where`` is always
re-applied here, so the planner can only reduce the number of objects
touched, never change results.  The chosen :class:`~repro.query.planner.QueryPlan`
— with estimated vs actual row counts — rides on the result as
``QueryResult.plan`` (``run_query(..., explain=True)``; CLI
``repro query --explain``).

``order by … limit k`` uses a bounded heap (``heapq.nsmallest`` /
``nlargest``, documented as equivalent to sorting then slicing, including
stability) instead of sorting all matches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List, Optional, Tuple

from ..core import resolution as _resolution
from ..core.objects import DBObject
from ..engine.database import Database
from ..expr import MISSING, EvalContext, truthy
from ..expr.compile import compile_expression, compile_predicate, compiled_for
from .parser import QuerySpec, parse_query
from .planner import QueryPlan, plan_source, resolve_source

__all__ = ["QueryResult", "execute_query", "run_query"]

@dataclass
class QueryResult:
    """The outcome of one query.

    ``columns`` are the projection source texts (``["*"]`` for object
    queries); ``rows`` are value tuples aligned with the columns; for
    ``select *`` queries ``objects`` carries the matching objects and each
    row is the one-element tuple of the object.  ``plan`` records the
    access path the planner chose.
    """

    spec: QuerySpec
    columns: List[str]
    rows: List[Tuple[Any, ...]]
    objects: Optional[List[DBObject]] = None
    plan: Optional[QueryPlan] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalars(self) -> List[Any]:
        """First-column values — convenient for single-column queries."""
        return [row[0] for row in self.rows]

    def explain(self) -> str:
        """The plan's EXPLAIN rendering."""
        return self.plan.describe() if self.plan is not None else "plan: (none)"

    def __repr__(self) -> str:
        return f"<QueryResult {self.spec.text!r} rows={len(self.rows)}>"


def _sort_key(value: Any):
    # MISSING/None order last; mixed types order by type name to stay total.
    if value is MISSING or value is None:
        return (2, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (0, "", value)
    return (1, type(value).__name__, str(value))


def execute_query(
    db: Database,
    spec: QuerySpec,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    """Run a parsed query against a database."""
    obs = getattr(db, "obs", None)
    if obs is None:
        return _execute(db, spec, None, compiled, views)
    # Clock the query only when a slow log is attached; within-budget
    # queries pay two perf_counter reads and one compare, nothing else.
    slowlog = obs.slowlog
    started = perf_counter() if slowlog is not None else 0.0
    with obs.tracer.span(
        "query.execute", source=spec.source_name, text=spec.text
    ) as span:
        result = _execute(db, spec, obs, compiled, views)
        span.set(rows=len(result.rows))
        if result.plan is not None:
            span.set(access=result.plan.access_path)
    if slowlog is not None:
        duration = perf_counter() - started
        if slowlog.exceeded("query", duration):
            plan = result.plan
            slowlog.note(
                "query",
                duration,
                subject=spec.text,
                explain=plan.describe() if plan is not None else None,
                rows=len(result.rows),
                candidates=plan.candidates if plan is not None else None,
            )
    return result


def _distinct_rows(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """Order-preserving dedupe: set-based for hashable rows, linear only
    for (and against) the unhashable ones.

    A hashable row can equal an unhashable one (``frozenset() == set()``),
    so hashable rows are also checked against the kept unhashable pool,
    and unhashable rows against everything kept so far.
    """
    try:
        # Bulk fast path: when every row hashes, dict.fromkeys dedupes
        # order-preservingly in one C-level pass (one hash per row).
        return list(dict.fromkeys(rows))
    except TypeError:
        pass
    seen: set = set()
    unhashable: List[Tuple[Any, ...]] = []
    unique: List[Tuple[Any, ...]] = []
    for row in rows:
        try:
            duplicate = row in seen
            if not duplicate and unhashable:
                duplicate = any(row == other for other in unhashable)
            if not duplicate:
                seen.add(row)
                unique.append(row)
        except TypeError:  # unhashable projection value
            if row not in unique:
                unique.append(row)
                unhashable.append(row)
    return unique


def _scan_by_type(
    db: Database, source: Any, where: Any, groups: List[Tuple[Any, List[DBObject]]],
    plan: QueryPlan, obs, views: bool,
) -> Optional[Tuple[int, List[DBObject]]]:
    """One batched scan per concrete type: the type's view program where
    views can serve it (full-scan plans only — an index path keeps
    precedence, sub-linear beats faster-scan), else its slot program.

    Returns ``(scanned, matches in source order)``, or None when a scan
    cannot finish; the caller then re-runs the query per object in source
    order, which raises the tree walk's first error, if any.
    """
    route = views and plan.access_path == "full-scan"
    parts: List[List[DBObject]] = []
    scanned = 0
    served = False
    try:
        for type_, objs in groups:
            outcome = None
            if route:
                outcome = db.views.try_scan(where, type_, objs, plan, obs)
                served = served or outcome is not None
            if outcome is None:
                if len(groups) > 1:
                    plan.notes.append(f"slot scan: {type_.name}")
                outcome = compiled_for(where, type_, obs).scan(objs)
                if outcome is None:
                    return None
            scanned += outcome[0]
            if outcome[1]:
                parts.append(outcome[1])
    except Exception:  # noqa: BLE001 - re-raised by the per-object re-run
        if len(groups) == 1:
            raise  # one group scans in source order: this is the first error
        return None
    if served:
        plan.access_path = "view"
    if len(parts) > 1:
        return scanned, source.ordered([obj for part in parts for obj in part])
    return scanned, parts[0] if parts else []


def _execute(
    db: Database,
    spec: QuerySpec,
    obs,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    source = resolve_source(db, spec.source_name)
    where = spec.where
    by_type = compiled and where is not None
    plan, candidates = plan_source(
        db, source, where, text=spec.text, by_type=by_type
    )

    matches: List[DBObject] = []
    scanned = 0
    outcome = None
    if by_type:
        outcome = _scan_by_type(db, source, where, candidates, plan, obs, views)
        if outcome is None:
            plan.notes.append("a batched scan could not finish; re-ran per object")
            candidates = source.ordered(
                [obj for _, objs in candidates for obj in objs]
            )
    if outcome is not None:
        scanned, matches = outcome
    elif compiled:
        # Per-object compiled predicates, one program per concrete type:
        # no where clause at all, or the re-run of a scan that could not
        # finish (its wrapping helpers raise the interpreter's errors).
        pred = None
        pred_type = None
        preds: dict = {}
        for obj in candidates:
            if obj.deleted:
                continue
            scanned += 1
            if where is not None:
                object_type = obj.object_type
                if object_type is not pred_type:
                    pred_type = object_type
                    pred = preds.get(id(object_type))
                    if pred is None:
                        pred = preds[id(object_type)] = compile_predicate(
                            where, object_type, obs
                        )
                if not pred(obj):
                    continue
            matches.append(obj)
    else:
        # Oracle mode: the interpretive walk.  Resolve each candidate
        # type's plan once up front (not per object): the where/order/
        # projection evaluation then always hits valid plans.
        warmed: set = set()
        for obj in candidates:
            if obj.deleted:
                continue
            object_type = obj.object_type
            if id(object_type) not in warmed:
                warmed.add(id(object_type))
                _resolution.plan_for(object_type, obs)
            scanned += 1
            if where is not None:
                if not truthy(where.evaluate(EvalContext(obj))):
                    continue
            matches.append(obj)
    plan.candidates = scanned

    if obs is not None:
        obs.metrics.counter("query.executed").inc()
        obs.metrics.counter("query.rows_scanned").inc(scanned)
        obs.metrics.counter("query.rows_matched").inc(len(matches))
        if plan.access_path == "full-scan":
            obs.metrics.counter("query.plan.full_scan").inc()
        elif plan.access_path == "view":
            obs.metrics.counter("query.plan.view_scan").inc()
        else:
            obs.metrics.counter("query.plan.index_scan").inc()

    if spec.order_by is not None:
        order_node = spec.order_by
        if compiled:
            order_fns: dict = {}

            def order_key(obj: DBObject):
                fn = order_fns.get(id(obj.object_type))
                if fn is None:
                    fn = order_fns[id(obj.object_type)] = compile_expression(
                        order_node, obj.object_type, obs
                    )
                return _sort_key(fn(obj))
        else:
            def order_key(obj: DBObject):
                return _sort_key(order_node.evaluate(EvalContext(obj)))

        if spec.limit is not None and spec.limit < len(matches):
            # Bounded-heap top-k: nsmallest/nlargest are documented as
            # equivalent to sorted(...)[:k] (asc) / sorted(..., reverse=True)[:k]
            # (desc), stability included.
            pick = heapq.nlargest if spec.descending else heapq.nsmallest
            matches = pick(spec.limit, matches, key=order_key)
            plan.order = f"top-{spec.limit} heap"
        else:
            matches.sort(key=order_key, reverse=spec.descending)
            plan.order = "sort"
        if spec.descending:
            plan.order += " desc"

    if spec.limit is not None:
        matches = matches[: spec.limit]

    if spec.projection is None:
        plan.rows = len(matches)
        if spec.distinct:
            seen = set()
            unique_rows = []
            unique_objects = []
            for obj in matches:
                if obj.surrogate not in seen:
                    seen.add(obj.surrogate)
                    unique_rows.append((obj,))
                    unique_objects.append(obj)
            plan.rows = len(unique_rows)
            return QueryResult(spec, ["*"], unique_rows, unique_objects, plan)
        rows = [(obj,) for obj in matches]
        return QueryResult(spec, ["*"], rows, matches, plan)

    rows = []
    if compiled:
        proj_fns: dict = {}
        for obj in matches:
            fns = proj_fns.get(id(obj.object_type))
            if fns is None:
                fns = proj_fns[id(obj.object_type)] = tuple(
                    compile_expression(node, obj.object_type, obs)
                    for _, node in spec.projection
                )
            rows.append(
                tuple(
                    None if (value := fn(obj)) is MISSING else value
                    for fn in fns
                )
            )
    else:
        for obj in matches:
            ctx = EvalContext(obj)
            row = tuple(
                None if (value := node.evaluate(ctx)) is MISSING else value
                for _, node in spec.projection
            )
            rows.append(row)
    if spec.distinct:
        rows = _distinct_rows(rows)
    plan.rows = len(rows)
    return QueryResult(spec, spec.column_names, rows, plan=plan)


def run_query(
    db: Database,
    text: str,
    explain: bool = False,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    """Parse and execute query text in one step.

    The plan is always attached as ``result.plan``; ``explain=True`` is
    the spelled-out request for it (the CLI's ``--explain`` uses this) —
    execution still happens, so the plan carries actual row counts next
    to the estimates.  ``compiled=False`` forces the tree-walking oracle;
    ``views=False`` keeps inherited-member predicates on the live
    resolution path (the materialized-view oracle).
    """
    result = execute_query(db, parse_query(text), compiled, views)
    if explain and result.plan is None:  # pragma: no cover - defensive
        result.plan = QueryPlan(
            source_name=result.spec.source_name,
            source_kind="class",
            source_size=len(result.rows),
            text=text,
        )
    return result
