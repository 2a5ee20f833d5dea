"""The slow-operation log (``repro slowlog``).

Latency problems in this engine are *emergent* — a query is slow because
the planner fell back to a scan, an update is slow because its propagation
cone is wide, an expansion is slow because the hierarchy ballooned — so a
slow-op record is only useful if it carries the **diagnosis**, not just
the duration.  The :class:`SlowLog` captures, per operation kind:

* ``query`` — the EXPLAIN plan (access path, estimated vs actual rows);
* ``propagation`` — the cone summary (attribute, fan-out, max depth);
* ``expansion`` — the materialised-object count and depth limit;
* ``txn`` — commit/abort with the undo-log length.

An operation exceeding its kind's latency budget is counted and appended
to the audit stream as one ``slowlog.<kind>`` record, causally linked to
the operation that overran, so ``repro audit`` and a JSONL sink see it
interleaved with the mutations it explains.  The slow log keeps no buffer
of its own: :meth:`SlowLog.operations` reads those records back out of
the audit ring.  Without an audit log it only counts.

Cost discipline: the engine's call sites clock an operation **only when a
slow log is attached** (``obs is not None and obs.slowlog is not None`` —
the same one-load-one-branch guard as the rest of the observability
layer), so the dark path stays free and the enabled-but-quiet path costs
two ``perf_counter`` reads per operation (measured in E18).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from .provenance import AuditRecord

__all__ = ["SLOWLOG_SCHEMA_VERSION", "DEFAULT_BUDGETS", "SlowOp", "SlowLog"]

SLOWLOG_SCHEMA_VERSION = "repro.slowlog/1"

#: Default latency budgets in seconds, per operation kind.  Deliberately
#: generous — the slow log is for outliers, not a second metrics registry.
DEFAULT_BUDGETS: Dict[str, float] = {
    "query": 0.050,
    "propagation": 0.050,
    "expansion": 0.100,
    "txn": 0.100,
}

#: Kind prefix of the slow log's audit records (``slowlog.<kind>``).
_PREFIX = "slowlog."


class SlowOp(NamedTuple):
    """One over-budget operation, read back from its audit record.

    ``seq`` is the audit record's place on the database's global
    event/audit sequence (the same counter ``repro audit`` numbers records
    with), so ``repro slowlog --since SEQ`` can tail incrementally and a
    slow op can be correlated with the audit records around it.
    """

    ts: float
    kind: str
    duration: float
    budget: float
    subject: Any
    detail: Dict[str, Any]
    seq: int

    @classmethod
    def from_record(cls, record: AuditRecord) -> "SlowOp":
        detail = dict(record.detail)
        duration = detail.pop("duration")
        budget = detail.pop("budget")
        return cls(record.ts, record.kind[len(_PREFIX):], duration, budget,
                   record.subject, detail, record.seq)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "duration": self.duration,
            "budget": self.budget,
            "subject": repr(self.subject) if self.subject is not None else None,
            "detail": {
                key: value
                if isinstance(value, (bool, int, float, str, type(None)))
                else repr(value)
                for key, value in self.detail.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"<SlowOp {self.kind} {self.duration * 1e3:.2f}ms "
            f"(budget {self.budget * 1e3:.1f}ms)>"
        )


class SlowLog:
    """Per-kind latency budgets over the audit stream.

    ``budgets`` overrides :data:`DEFAULT_BUDGETS` per kind; a kind whose
    budget is ``None`` is never recorded.  Every over-budget operation is
    counted (``recorded``, and ``slowlog.<kind>`` in ``metrics``) and,
    when ``audit`` is attached, appended to it as one ``slowlog.<kind>``
    record with the diagnosis in its detail.
    """

    def __init__(
        self,
        budgets: Optional[Dict[str, float]] = None,
        audit=None,
        metrics=None,
    ):
        self.budgets = dict(DEFAULT_BUDGETS)
        if budgets:
            self.budgets.update(budgets)
        self.audit = audit
        self.metrics = metrics
        #: Total over-budget operations ever seen (the audit ring is bounded).
        self.recorded = 0

    def budget(self, kind: str) -> Optional[float]:
        """The budget for ``kind`` in seconds, or None (= never record)."""
        return self.budgets.get(kind)

    def exceeded(self, kind: str, duration: float) -> bool:
        """Whether ``duration`` overran ``kind``'s budget.

        Call sites use this one-compare check before building expensive
        diagnosis detail (an EXPLAIN rendering, a cone summary) for
        :meth:`note`, so within-budget operations never pay for it.
        """
        budget = self.budgets.get(kind)
        return budget is not None and duration >= budget

    def note(
        self, kind: str, duration: float, subject: Any = None, **detail: Any
    ) -> Optional[SlowOp]:
        """Count the operation iff it exceeded its kind's budget.

        Returns the :class:`SlowOp` its audit record reads back as, or
        None when within budget (the overwhelmingly common case — one
        float compare) or when no audit log keeps the record.
        """
        budget = self.budgets.get(kind)
        if budget is None or duration < budget:
            return None
        self.recorded += 1
        if self.metrics is not None:
            self.metrics.counter(_PREFIX + kind).inc()
        if self.audit is None:
            return None
        return SlowOp.from_record(self.audit.record(
            _PREFIX + kind, subject, duration=duration, budget=budget, **detail
        ))

    # -- inspection --------------------------------------------------------------

    def operations(
        self, kind: Optional[str] = None, since: Optional[int] = None
    ) -> List[SlowOp]:
        """The slow operations still in the audit ring, oldest first.

        ``kind`` keeps one operation kind; ``since`` keeps records at or
        after that global sequence number (the selectors behind
        ``repro slowlog --kind/--since``, mirroring ``repro audit``).
        """
        if self.audit is None:
            return []
        return [
            SlowOp.from_record(item)
            for item in self.audit.ring
            if type(item) is AuditRecord
            and item.kind.startswith(_PREFIX)
            and (kind is None or item.kind == _PREFIX + kind)
            and (since is None or item.seq >= since)
        ]

    def snapshot(
        self, kind: Optional[str] = None, since: Optional[int] = None
    ) -> Dict[str, Any]:
        """The ``repro.slowlog/1`` JSON document (optionally filtered)."""
        return {
            "schema": SLOWLOG_SCHEMA_VERSION,
            "budgets": dict(self.budgets),
            "recorded": self.recorded,
            "operations": [
                op.as_dict() for op in self.operations(kind, since)
            ],
        }

    def render(
        self, kind: Optional[str] = None, since: Optional[int] = None
    ) -> str:
        """An aligned text table of the slow operations in the audit ring."""
        ops = self.operations(kind, since)
        if not ops:
            if kind is not None or since is not None:
                return "slow log: no operations match the filters"
            if self.recorded:
                return (
                    f"slow log: {self.recorded} over-budget operation(s), "
                    f"none kept in the audit ring"
                )
            return "slow log: empty (nothing exceeded its budget)"
        lines = [
            f"slow log: {self.recorded} over-budget operation(s) "
            f"({len(ops)} shown)"
        ]
        for op in ops:
            lines.append(
                f"  #{op.seq} [{op.kind}] {op.duration * 1e3:.2f}ms "
                f"(budget {op.budget * 1e3:.1f}ms) {op.subject!r}"
            )
            for key, value in op.detail.items():
                rendered = str(value)
                for extra, line in enumerate(rendered.split("\n")):
                    prefix = f"    {key}: " if extra == 0 else "      "
                    lines.append(prefix + line)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<SlowLog recorded={self.recorded}>"
