"""The per-database observability bundle and hot-path helpers.

:class:`Observability` bundles one tracer, one metrics registry, one
event tap, the audit log, the slow-operation log and the flight recorder
for a database.  The audit ring is the one record stream: it keeps the
bus events and the slow operations.  Engine modules reach the bundle
through the database's ``obs`` attribute (``None`` by default — the
whole layer costs one attribute load and a branch when disabled)::

    obs = getattr(db, "obs", None)
    if obs is not None:
        obs.metrics.counter("reads.inherited").inc()

:func:`maybe_span` is the same pattern for spans: it returns the shared
no-op span when observability (or tracing) is off, so call sites can use
``with maybe_span(obs, "query.execute"):`` unconditionally.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import MetricsRegistry
from .provenance import AuditLog
from .tap import EventTap
from .tracing import NULL_SPAN, Tracer

__all__ = ["Observability", "observability_of", "maybe_span"]


class Observability:
    """Tracer + metrics + event tap + audit + slow log + flight recorder
    for one database."""

    def __init__(
        self,
        database,
        tracing: bool = True,
        audit: bool = True,
        audit_ring: int = 1024,
        audit_sink=None,
        slowlog: bool = True,
        slow_budgets=None,
        flight_ring: int = 256,
    ):
        self.database = database
        self.tracer = Tracer(enabled=tracing)
        self.metrics = MetricsRegistry()
        self.audit = None
        if audit:
            if isinstance(audit_sink, str):
                from .export import JsonlSink

                audit_sink = JsonlSink(audit_sink)
            self.audit = AuditLog(
                database.events, ring_size=audit_ring, sink=audit_sink
            )
        # The slow-op log has no bus subscription of its own: engine call
        # sites clock an operation only when this attribute is non-None
        # and hand the duration over; its records live in the audit ring
        # (see repro.obs.slowlog).
        self.slowlog = None
        if slowlog:
            from .slowlog import SlowLog

            self.slowlog = SlowLog(
                budgets=slow_budgets, audit=self.audit, metrics=self.metrics
            )
        # The audit log rides the tap's single wildcard subscription —
        # enabling provenance adds no further bus handlers.
        self.tap = EventTap(
            database.events, self.metrics, audit=self.audit, slowlog=self.slowlog
        )
        # The flight recorder is pull-based: it subscribes to nothing and
        # costs nothing until someone calls tick() (or starts its thread).
        from .recorder import FlightRecorder

        self.recorder = FlightRecorder(database, capacity=flight_ring)
        self._health = None

    @property
    def health(self):
        """The lazily-built :class:`~repro.obs.health.HealthMonitor`."""
        if self._health is None:
            from .health import HealthMonitor

            self._health = HealthMonitor(self.recorder)
        return self._health

    # -- convenience passthroughs -------------------------------------------------

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    # -- lifecycle ---------------------------------------------------------------

    def detach(self) -> None:
        """Stop observing: drop the bus subscription, disable the tracer,
        stop the recorder thread, close the audit sink (the in-memory
        rings stay readable)."""
        self.tap.detach()
        self.tracer.enabled = False
        self.recorder.stop()
        if self.audit is not None:
            self.audit.close()

    def __repr__(self) -> str:
        return (
            f"<Observability db={self.database.name!r} "
            f"metrics={len(self.metrics)} spans={len(self.tracer)}>"
        )


def observability_of(owner) -> Optional[Observability]:
    """The :class:`Observability` of a database (or anything carrying one)."""
    return getattr(owner, "obs", None)


def maybe_span(obs: Optional[Observability], name: str, **attributes: Any):
    """A span when observability is attached and tracing on, else a no-op."""
    if obs is None:
        return NULL_SPAN
    return obs.tracer.span(name, **attributes)
