"""Event-bus telemetry: counters per event kind and propagation fan-out.

The :class:`EventTap` makes exactly **one** wildcard subscription on the
database's :class:`~repro.engine.events.EventBus` (so ``observe=False``
databases have zero observability subscriptions, and enabling it adds one).
Every event increments ``events.<kind>``; the kinds that drive the paper's
update-propagation story get richer treatment:

* ``attribute_updated`` — the transitive fan-out of the update through
  permeable inheritance links (``propagation.fanout`` histogram,
  ``propagation.fanout_total``, per-relationship-type counters
  ``propagation.by_rel_type.<name>``), read off the propagation cone the
  derived-state maintainer walked for this update and handed over on the
  event (``Event.cone``, :mod:`repro.query.maintain`) — the tap never
  walks it; an update the maintainer did not publish is not measured;
* ``inheritor_bound`` / ``inheritor_unbound`` — per-relationship-type
  binding churn (``inheritance.bound.<name>`` / ``inheritance.unbound.<name>``).

Counter handles are bound once per event kind and relationship type, so
the hot path formats no metric names.  The tap keeps no events itself.

When an :class:`~repro.obs.provenance.AuditLog` is wired in (``audit``),
the tap forwards every event to it — **through the same single
subscription** — which makes the audit ring the one place bus events are
kept for inspection (:meth:`~repro.obs.provenance.AuditLog.events`,
``repro metrics --events``).  It also appends one ``propagation.fanout``
record per update with inheritors, causally linked to the update, whose
``reached`` detail is the cone's own link list (depths are derived when
the record is read).  That is what lets a
:class:`~repro.obs.provenance.PropagationCone` be reconstructed per root
mutation.  With a slow log wired in (``slowlog``), an update whose
maintenance pass overran the ``propagation`` budget is noted there,
causally linked to the update.
"""

from __future__ import annotations

from collections import Counter as _Tally
from operator import attrgetter
from typing import Any, Dict

from ..core.inheritance import cone_depths
from ..engine.events import Event, EventBus
from .metrics import FANOUT_BUCKETS, Counter, MetricsRegistry

__all__ = ["EventTap"]

_rel_type_of = attrgetter("rel_type")


class EventTap:
    """One subscription turning bus traffic into metrics."""

    def __init__(
        self, bus: EventBus, metrics: MetricsRegistry, audit=None, slowlog=None
    ):
        self.bus = bus
        self.metrics = metrics
        self.audit = audit
        self.slowlog = slowlog
        #: Bound counter handles: event kind -> ``events.<kind>``, and
        #: (prefix, relationship type) -> ``<prefix>.<name>``.
        self._by_kind: Dict[str, Counter] = {}
        self._by_rel: Dict[Any, Counter] = {}
        self._generation = metrics.generation
        self._subscription = bus.subscribe(EventBus.WILDCARD, self._on_event)

    def _rel_counter(self, prefix: str, rel_type) -> Counter:
        counter = self._by_rel.get((prefix, rel_type))
        if counter is None:
            counter = self._by_rel[prefix, rel_type] = self.metrics.counter(
                f"{prefix}.{rel_type.name}"
            )
        return counter

    # -- handler -----------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        metrics = self.metrics
        if self._generation != metrics.generation:
            # The registry was reset: its instruments are new objects.
            self._by_kind.clear()
            self._by_rel.clear()
            self._generation = metrics.generation
        kind = event.kind
        counter = self._by_kind.get(kind)
        if counter is None:
            counter = self._by_kind[kind] = metrics.counter(f"events.{kind}")
        counter.inc()
        audit = self.audit
        if audit is not None:
            audit.on_event(event)
        if kind == "attribute_updated":
            metrics.counter("propagation.updates").inc()
            self._measure_propagation(event)
        elif kind == "inheritor_bound":
            self._rel_counter("inheritance.bound", event.data["rel_type"]).inc()
        elif kind == "inheritor_unbound":
            self._rel_counter("inheritance.unbound", event.data["rel_type"]).inc()

    def _measure_propagation(self, event: Event) -> None:
        cone = event.cone
        if cone is None:
            return
        metrics = self.metrics
        attribute = event.data["attribute"]
        links = cone.links
        fanout = len(links)
        if fanout:
            for rel_type, count in _Tally(map(_rel_type_of, links)).items():
                self._rel_counter("propagation.by_rel_type", rel_type).inc(count)
            metrics.counter("propagation.updates_with_inheritors").inc()
            audit = self.audit
            if audit is not None:
                audit.event_child(
                    event,
                    "propagation.fanout",
                    subject=event.subject,
                    attribute=attribute,
                    reached=links,
                )
        metrics.histogram("propagation.fanout", FANOUT_BUCKETS).observe(fanout)
        metrics.counter("propagation.fanout_total").inc(fanout)
        slowlog = self.slowlog
        if slowlog is not None and slowlog.exceeded("propagation", cone.duration):
            # The cone summary is the diagnosis: how wide and how deep the
            # update reached.  Noted here, under the update's cause.
            depths = cone_depths(event.subject, links)
            slowlog.note(
                "propagation",
                cone.duration,
                subject=event.subject,
                attribute=attribute,
                fanout=fanout,
                depth=max((depth for _, _, depth in depths), default=0),
            )

    # -- lifecycle ---------------------------------------------------------------

    def detach(self) -> None:
        """Unsubscribe from the bus; the tap stops counting."""
        if self._subscription is not None:
            self.bus.unsubscribe(self._subscription)
            self._subscription = None

    def __repr__(self) -> str:
        attached = "attached" if self._subscription is not None else "detached"
        return f"<EventTap {attached}>"
