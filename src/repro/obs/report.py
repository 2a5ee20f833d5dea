"""Snapshots, rendering and the standard workout for ``repro metrics``.

:func:`snapshot` freezes an observed database's registry (plus the bus
events in the audit ring) into the stable ``repro.metrics/1`` JSON shape
documented in ``docs/observability.md``; :func:`render_table` prints the
same data as an aligned text table.  :func:`exercise` drives the engine's
instrumented paths over an already-loaded database — inherited reads,
update propagation, lock plans and a lock table — so a freshly loaded
image yields meaningful counters instead of zeros.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.resolution import resolution_stats
from ..errors import ReproError

__all__ = ["SCHEMA_VERSION", "snapshot", "render_table", "exercise", "derived_stats"]

SCHEMA_VERSION = "repro.metrics/1"


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

def _event_summary(event) -> Dict[str, Any]:
    return {
        "seq": event.seq,
        "ts": event.ts,
        "cause": event.cause,
        "trace": event.trace,
        "kind": event.kind,
        "subject": repr(event.subject),
        "data": {key: repr(value) for key, value in event.data.items()},
    }


def snapshot(db, include_events: bool = True) -> Dict[str, Any]:
    """The ``repro.metrics/1`` dictionary for an observed database."""
    obs = getattr(db, "obs", None)
    if obs is None:
        raise ReproError(
            f"database {db.name!r} has no observability attached "
            f"(create it with observe=True or call enable_observability())"
        )
    data = obs.metrics.as_dict()
    gauges = dict(data["gauges"])
    # Fold in the process-global resolution-plan statistics (plans are
    # compiled per type, not per database, so they live outside the
    # registry; see repro.core.resolution).
    gauges.update(resolution_stats())
    # And the database's index-manager statistics: index maintenance runs
    # whether or not observability is attached, so the authoritative
    # counts live on the manager and are surfaced here as gauges
    # (index.hits / index.misses / index.maintenance / …).
    indexes = getattr(db, "indexes", None)
    if indexes is not None:
        gauges.update(indexes.stats_snapshot())
    # Same for the materialized-view manager (query.view.hits / misses /
    # refreshes / staleness / …).
    views = getattr(db, "views", None)
    if views is not None:
        gauges.update(views.stats_snapshot())
    result: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "database": db.name,
        "objects": db.count(),
        "counters": data["counters"],
        "gauges": gauges,
        "histograms": data["histograms"],
    }
    if include_events:
        # The bus events mirrored in the audit ring (none without one).
        audit = obs.audit
        events = audit.events() if audit is not None else []
        result["events"] = {
            "ring_size": audit.ring.maxlen if audit is not None else 0,
            "recent": [_event_summary(event) for event in events],
        }
    return result


def derived_stats(snap: Dict[str, Any]) -> Dict[str, Any]:
    """Headline figures computed from a snapshot (used by reports).

    ``lock_waits`` is the conflict count (the non-blocking manager's
    equivalent of a wait); ``propagation_mean_fanout`` comes from the
    fan-out histogram.
    """
    counters = snap.get("counters", {})
    fanout = snap.get("histograms", {}).get("propagation.fanout")
    return {
        "propagation_updates": counters.get("propagation.updates", 0),
        "propagation_fanout_total": counters.get("propagation.fanout_total", 0),
        "propagation_mean_fanout": fanout["mean"] if fanout else None,
        "lock_acquisitions": counters.get("locks.acquired", 0),
        "lock_waits": counters.get("locks.conflicts", 0),
        "inherited_reads": counters.get("reads.inherited", 0),
        "queries": counters.get("query.executed", 0),
    }


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _rows(table: Dict[str, Any]) -> List[str]:
    if not table:
        return ["  (none)"]
    width = max(len(name) for name in table)
    return [f"  {name.ljust(width)}  {value}" for name, value in table.items()]


def render_table(snap: Dict[str, Any]) -> str:
    """Aligned text rendering of a snapshot for terminal output."""
    lines: List[str] = [
        f"database: {snap['database']} ({snap.get('objects', '?')} objects)",
        "",
        "counters:",
        *_rows(snap.get("counters", {})),
        "",
        "gauges:",
        *_rows(snap.get("gauges", {})),
        "",
        "histograms:",
    ]
    histograms = snap.get("histograms", {})
    if not histograms:
        lines.append("  (none)")
    for name, hist in histograms.items():
        lines.append(
            f"  {name}  count={hist['count']} sum={hist['sum']} "
            f"min={hist['min']} max={hist['max']} mean={hist['mean']}"
        )
        if hist.get("p50") is not None:
            lines.append(
                f"    p50={hist['p50']} p95={hist['p95']} p99={hist['p99']} "
                f"(over {hist.get('sampled', '?')} sampled)"
            )
        buckets = " ".join(
            f"≤{bucket['le']}:{bucket['count']}"
            for bucket in hist["buckets"]
            if bucket["count"]
        )
        if hist.get("inf"):
            buckets = (buckets + f" +Inf:{hist['inf']}").strip()
        if buckets:
            lines.append(f"    {buckets}")
    events = snap.get("events")
    if events is not None:
        lines += ["", f"recent events ({len(events['recent'])} buffered):"]
        for entry in events["recent"][-10:]:
            cause = (
                f" <-#{entry['cause']}" if entry.get("cause") is not None else ""
            )
            lines.append(
                f"  #{entry['seq']} {entry['kind']} {entry['subject']}{cause}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the standard workout
# ---------------------------------------------------------------------------

def exercise(db) -> None:
    """Drive every instrumented path once over a loaded database.

    Touches only existing state: inherited members are read, transmitters
    re-assert one already-stored permeable value (which exercises the
    propagation walk without changing any data), and lock plans/acquisitions
    run inside a scratch lock table that is torn down afterwards.
    """
    from ..composition.composite import component_subobjects, expand
    from ..engine.integrity import check_integrity
    from ..txn.lock_inheritance import expansion_lock_plan, inherited_lock_plan
    from ..txn.locks import LockMode, LockTable

    obs = getattr(db, "obs", None)
    if obs is None:
        raise ReproError("exercise() needs an observed database")
    objects = [obj for obj in db.objects() if not obj.deleted]

    with obs.span("obs.exercise", objects=len(objects)):
        with obs.span("exercise.integrity"):
            check_integrity(db)

        # Inherited reads: every visible member of every object.
        with obs.span("exercise.reads"):
            for obj in objects:
                for name in obj.visible_member_names():
                    try:
                        obj.get_member(name)
                    except ReproError:
                        continue

        # Update propagation: each transmitter re-asserts one permeable
        # local value, so the tap measures the real fan-out of the image.
        with obs.span("exercise.propagation"):
            for obj in objects:
                if not obj.inheritor_links:
                    continue
                for name, value in obj.local_attributes().items():
                    if any(
                        link.rel_type.is_permeable(name)
                        for link in obj.inheritor_links
                    ):
                        try:
                            obj.set_attribute(name, value)
                        except ReproError:
                            continue
                        break

        # Lock plans and acquisitions over a scratch table.
        with obs.span("exercise.locks"):
            table = LockTable(obs=obs)
            for obj in objects:
                table.acquire(1, obj.surrogate, LockMode.S)
                for transmitter, scope in inherited_lock_plan(obj):
                    table.acquire(1, transmitter.surrogate, LockMode.S, scope)
            table.release_all(1)
            for obj in objects:
                if obj.parent is None and component_subobjects(obj):
                    expansion_lock_plan(obj)
                    expand(obj)
