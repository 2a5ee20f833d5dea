"""Causal provenance: the audit log, propagation cones and value EXPLAIN.

PR 1's :class:`~repro.obs.tap.EventTap` counts events but discards
causality; this module keeps it.  Three pieces:

* :class:`AuditLog` — an append-only structured log (bounded ring plus an
  optional JSONL sink) of every bus event the tap sees **and** of derived
  operations the engine reports (propagation fan-out arrivals, index and
  view maintenance, index self-heal, lock-inheritance acquisitions,
  transaction abort restores, composite expansion).  A mutation's
  fan-out and maintenance are stored as one record each, sharing the
  mutation's cone, and expanded into per-inheritor / per-target records
  when read.  Every :class:`AuditRecord` carries
  the process-global ``seq``, a ``cause`` (the record whose handler or
  operation produced it) and a ``trace`` (the root of the causal chain) —
  the stamps :meth:`repro.engine.events.EventBus.emit` threads through the
  bus cause stack.

* :class:`PropagationCone` — all records of one ``trace``, reconstructed
  per root mutation: depth, breadth, per-relationship-type membership and
  wall time of §4.2's update fan-out.  Cone membership is exactly what
  :func:`repro.core.inheritance.iter_propagation` reaches (the tests
  verify the equivalence).

* :func:`explain_value` — the full provenance of one member read: the
  inheritance path the compiled
  :class:`~repro.core.resolution.ResolutionPlan` traverses, every
  permeability decision along it, the holder that supplies the value, the
  epochs a cached resolution would be validated against, and which value
  indexes track the reading.  Works with or without observability
  attached; the chain equals :func:`repro.core.resolution.naive_resolution_chain`
  by construction (hypothesis-tested).

The whole layer is pull-free on the disabled path: engine call sites guard
with ``obs is not None and obs.audit is not None`` — one attribute load and
a branch, nothing else.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from itertools import islice
from time import time as _time
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional

from ..core import resolution as _resolution
from ..core.inheritance import cone_depths
from ..core.slots import UNSET as _UNSET
from ..engine.events import Event, EventBus, next_seq
from ..errors import ObjectDeletedError, UnknownAttributeError

__all__ = [
    "AuditRecord",
    "AuditLog",
    "PropagationCone",
    "ProvenanceStep",
    "ValueProvenance",
    "explain_value",
]


def _jsonable(value: Any) -> Any:
    """A JSON-safe rendering of a detail value (reprs for objects)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


#: Kind of the one batched maintenance record a mutation appends; read
#: back as per-target ``index.maintenance`` / ``view.maintenance`` records.
MAINTENANCE_BATCH = "maintenance.batch"


def _expand(item: Any) -> Iterator["AuditRecord"]:
    """The audit records one ring entry stands for.

    The hot paths store entries in their cheapest form and the readers
    pay for the structure: a mirrored bus event is the frozen
    :class:`~repro.engine.events.Event` itself (its ``data`` is the
    detail); a ``propagation.fanout`` record
    holds the cone's link list, turned into ``(link, inheritor, depth)``
    arrivals here; a maintenance batch becomes one record per refreshed
    target, each carrying the batch's stamps.
    """
    if type(item) is not AuditRecord:
        yield AuditRecord(
            item.seq, item.ts, item.kind, item.subject, item.cause, item.trace, item.data
        )
    elif item.kind == "propagation.fanout":
        detail = dict(item.detail)
        detail["reached"] = list(cone_depths(item.subject, detail["reached"]))
        yield item._replace(detail=detail)
    elif item.kind == MAINTENANCE_BATCH:
        cone = item.detail["cone"]
        targets = iter(cone.refreshed)
        for index, count in cone.spans:
            for target in islice(targets, count):
                if index is not None:
                    detail = {"attribute": index.attr, "index": index.label,
                              "reason": cone.reason}
                    kind = "index.maintenance"
                else:
                    detail = {"view": target.object_type.name,
                              "reason": cone.reason}
                    if cone.member is not None:
                        detail = {"attribute": cone.member, **detail}
                    kind = "view.maintenance"
                yield item._replace(kind=kind, subject=target, detail=detail)
    else:
        yield item


def _subject_matches(record: "AuditRecord", subject: Any) -> bool:
    """Subject filter: identity for objects, substring-of-``repr`` for
    strings; a batched fan-out record also matches its reached inheritors."""
    if isinstance(subject, str):
        if subject in repr(record.subject):
            return True
    elif record.subject is subject:
        return True
    if record.kind == "propagation.fanout":
        reached = record.detail.get("reached") or ()
        if isinstance(subject, str):
            return any(subject in repr(inh) for _, inh, _ in reached)
        return any(inh is subject for _, inh, _ in reached)
    return False


# ---------------------------------------------------------------------------
# the audit log
# ---------------------------------------------------------------------------


class AuditRecord(NamedTuple):
    """One append-only audit entry.

    Bus events are mirrored with their own stamps (same ``seq``/``ts``/
    ``cause``/``trace`` as the :class:`~repro.engine.events.Event`); derived
    operations draw a fresh ``seq`` from the same global counter and their
    causal context from the bus cause stack, so records and events
    interleave in one deterministic total order.  (A named tuple so the
    hot append path constructs it at C speed.)
    """

    seq: int
    ts: float
    kind: str
    subject: Any
    cause: Optional[int]
    trace: int
    detail: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        """The stable ``repro.audit/1`` record shape (JSON-safe)."""
        detail = {key: _jsonable(value) for key, value in self.detail.items()}
        reached = self.detail.get("reached")
        if self.kind == "propagation.fanout" and reached is not None:
            # The hot path stores raw (link, inheritor, depth) tuples;
            # exports get the structured form.
            detail["reached"] = [
                {
                    "inheritor": repr(inheritor),
                    "rel_type": link.rel_type.name,
                    "depth": depth,
                }
                for link, inheritor, depth in reached
            ]
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "subject": repr(self.subject) if self.subject is not None else None,
            "cause": self.cause,
            "trace": self.trace,
            "detail": detail,
        }

    def __repr__(self) -> str:
        cause = f" cause={self.cause}" if self.cause is not None else ""
        return f"<AuditRecord #{self.seq} {self.kind}{cause} trace={self.trace}>"


class AuditLog:
    """Bounded append-only ring of :class:`AuditRecord`, optional JSONL sink.

    Wired by :class:`~repro.obs.instruments.Observability`: the event tap
    forwards every bus event (:meth:`on_event` — no extra bus
    subscription), engine call sites report derived operations through
    :meth:`record`, and multi-step engine operations open a causal frame
    with :meth:`operation` so the events they emit become their children.
    ``appended`` counts stored entries; readers (:meth:`records`, the
    sink) see them expanded (:func:`_expand`).  The ring is the bundle's
    one record stream: ``repro metrics --events`` reads its bus events
    (:meth:`events`) and the slow log its ``slowlog.<kind>`` records.
    """

    def __init__(self, bus: EventBus, ring_size: int = 1024, sink=None):
        self.bus = bus
        #: Ring entries are AuditRecords or mirrored Events (see _expand).
        self.ring: Deque[Any] = deque(maxlen=ring_size)
        self.sink = sink
        #: Total entries ever appended (the ring is bounded, this is not).
        self.appended = 0

    # -- appending ---------------------------------------------------------------

    def _append(self, item: Any) -> Any:
        self.ring.append(item)
        self.appended += 1
        sink = self.sink
        if sink is not None:
            for record in _expand(item):
                sink.write_record(record.as_dict())
        return item

    def on_event(self, event: Event) -> Event:
        """Mirror a bus event, reusing its causal stamps.

        The frozen event is stored as-is and normalised to an
        :class:`AuditRecord` lazily by the readers, keeping the per-event
        mirror cost to one ring append.  When the maintainer refreshed
        derived state for the event's mutation, one batched
        ``maintenance.batch`` record follows it, caused by the event.
        """
        self._append(event)
        cone = event.cone
        if cone is not None and cone.refreshed:
            self._append(
                AuditRecord(next_seq(), event.ts, MAINTENANCE_BATCH, cone.subject,
                            event.seq, event.trace, {"cone": cone})
            )
        return event

    def record(self, kind: str, subject: Any = None, **detail: Any) -> AuditRecord:
        """Append a derived record, causally linked to the current frame."""
        seq = next_seq()
        context = self.bus.cause_context()
        cause, trace = context if context is not None else (None, seq)
        return self._append(
            AuditRecord(seq, _time(), kind, subject, cause, trace, detail)
        )

    def event_child(
        self, event: Event, kind: str, subject: Any = None, **detail: Any
    ) -> AuditRecord:
        """Append a derived record caused directly by ``event``.

        Hot-path variant of :meth:`record` for call sites already holding
        the causing event: the stamps come straight from it, skipping the
        cause-stack lookup.
        """
        return self._append(
            AuditRecord(next_seq(), _time(), kind, subject, event.seq, event.trace, detail)
        )

    @contextmanager
    def operation(self, kind: str, subject: Any = None, **detail: Any):
        """A synthetic root (or nested) causal frame.

        Events emitted and records appended inside the ``with`` block are
        children of the operation's record — used by transaction abort
        (its ``attribute_restored`` restores), locked reads (their
        lock-inheritance acquisitions) and composite expansion.
        """
        record = self.record(kind, subject, **detail)
        self.bus.push_cause(record.seq, record.trace)
        try:
            yield record
        finally:
            self.bus.pop_cause()

    # -- inspection --------------------------------------------------------------

    def records(
        self,
        kind: Optional[str] = None,
        subject: Any = None,
        trace: Optional[int] = None,
    ) -> List[AuditRecord]:
        """Buffered records, oldest first, with optional filters.

        ``subject`` matches identity for objects, substring-of-``repr``
        for strings (the CLI filter).
        """
        result: List[AuditRecord] = []
        for item in self.ring:
            if kind is not None and item.kind != kind and item.kind != MAINTENANCE_BATCH:
                continue
            if trace is not None and item.trace != trace:
                continue
            for record in _expand(item):
                if kind is not None and record.kind != kind:
                    continue
                if subject is not None and not _subject_matches(record, subject):
                    continue
                result.append(record)
        return result

    def events(self) -> List[Event]:
        """The mirrored bus events still in the ring, oldest first."""
        return [item for item in self.ring if type(item) is not AuditRecord]

    def traces(self) -> List[int]:
        """Distinct trace ids in the ring, in first-appearance order."""
        seen: Dict[int, None] = {}
        for record in self.ring:
            seen.setdefault(record.trace, None)
        return list(seen)

    def cone(self, trace: int) -> Optional["PropagationCone"]:
        """The reconstructed cone of one trace, or ``None`` if unknown."""
        records = [
            record
            for item in self.ring
            if item.trace == trace
            for record in _expand(item)
        ]
        if not records:
            return None
        return PropagationCone(trace, records)

    def cones(self, kind: Optional[str] = None) -> List["PropagationCone"]:
        """One cone per trace in the ring, optionally only traces whose
        root record has ``kind``."""
        grouped: Dict[int, List[AuditRecord]] = {}
        for item in self.ring:
            grouped.setdefault(item.trace, []).extend(_expand(item))
        cones = [PropagationCone(trace, records) for trace, records in grouped.items()]
        if kind is not None:
            cones = [cone for cone in cones if cone.root.kind == kind]
        return cones

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        sink = self.sink
        if sink is not None and hasattr(sink, "close"):
            sink.close()
        self.sink = None

    def __len__(self) -> int:
        return len(self.ring)

    def __repr__(self) -> str:
        return f"<AuditLog buffered={len(self.ring)} appended={self.appended}>"


# ---------------------------------------------------------------------------
# propagation cones
# ---------------------------------------------------------------------------


class PropagationCone:
    """All audit records of one causal trace — one root mutation's reach.

    ``members()`` are the inheritors the ``attribute_updated`` fan-out
    reached (the ``propagation.fanout`` record holding the update's
    :func:`~repro.core.inheritance.propagation_cone`);
    ``depth`` is the deepest inheritance level reached, ``breadth`` the
    member count, ``by_rel_type`` the per-relationship-type membership and
    ``wall_time`` the span from the root's timestamp to the last record's.
    """

    def __init__(self, trace: int, records: List[AuditRecord]):
        self.trace = trace
        self.records = sorted(records, key=lambda record: record.seq)
        root = self.records[0]
        for record in self.records:
            if record.seq == trace:
                root = record
                break
        self.root = root
        #: Flattened (link, inheritor, depth) arrivals, in arrival order.
        self._reached = [
            item
            for record in self.records
            if record.kind == "propagation.fanout"
            for item in record.detail.get("reached", ())
        ]

    @property
    def breadth(self) -> int:
        return len(self._reached)

    @property
    def depth(self) -> int:
        """Deepest inheritance level reached (0: the update stayed local)."""
        return max((depth for _, _, depth in self._reached), default=0)

    @property
    def by_rel_type(self) -> Counter:
        return Counter(link.rel_type.name for link, _, _ in self._reached)

    def members(self) -> List[Any]:
        """The inheritor objects the fan-out reached, in arrival order."""
        return [inheritor for _, inheritor, _ in self._reached]

    @property
    def wall_time(self) -> float:
        stamps = [record.ts for record in self.records if record.ts]
        if len(stamps) < 2:
            return 0.0
        return max(stamps) - min(stamps)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "root": self.root.as_dict(),
            "records": len(self.records),
            "breadth": self.breadth,
            "depth": self.depth,
            "by_rel_type": dict(self.by_rel_type),
            "members": [repr(member) for member in self.members()],
            "wall_time": self.wall_time,
        }

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"<PropagationCone trace={self.trace} root={self.root.kind} "
            f"breadth={self.breadth} depth={self.depth}>"
        )


# ---------------------------------------------------------------------------
# value provenance (EXPLAIN for member reads)
# ---------------------------------------------------------------------------


class ProvenanceStep:
    """One level of the delegation chain.

    ``decisions`` lists every ``inheritor-in`` declaration of the level's
    type, in declaration order (the paper's diamond disambiguation), with
    its permeability verdict for the member, whether the link is bound,
    and whether the walk followed it (the first bound permeable link).
    ``via`` names the followed relationship type, ``None`` on the final
    (holder) step.
    """

    __slots__ = ("object", "via", "decisions")

    def __init__(self, obj: Any, via: Optional[str], decisions: List[Dict[str, Any]]):
        self.object = obj
        self.via = via
        self.decisions = decisions

    def as_dict(self) -> Dict[str, Any]:
        return {
            "object": repr(self.object),
            "via": self.via,
            "decisions": self.decisions,
        }


class ValueProvenance:
    """The answer of :func:`explain_value` — why a read returns its value."""

    __slots__ = (
        "object",
        "attribute",
        "value",
        "holder",
        "hops",
        "steps",
        "source",
        "served_by",
        "epochs",
        "indexes",
        "views",
    )

    def __init__(
        self,
        obj: Any,
        attribute: str,
        value: Any,
        holder: Any,
        hops: int,
        steps: List[ProvenanceStep],
        source: str,
        served_by: str,
        epochs: Dict[str, int],
        indexes: List[str],
        views: Optional[List[str]] = None,
    ):
        self.object = obj
        self.attribute = attribute
        self.value = value
        self.holder = holder
        self.hops = hops
        self.steps = steps
        self.source = source
        self.served_by = served_by
        self.epochs = epochs
        self.indexes = indexes
        #: Materialized views whose flattened row carries this reading,
        #: each tagged ``(fresh)`` or ``(stale)`` by comparing the view
        #: cell with the live value (see repro.query.views).
        self.views = views if views is not None else []

    def chain(self) -> List[Any]:
        """The delegation chain ``[object, …, holder]`` (provenance oracle:
        equals :func:`repro.core.resolution.naive_resolution_chain`)."""
        return [step.object for step in self.steps]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "object": repr(self.object),
            "attribute": self.attribute,
            "value": _jsonable(self.value),
            "holder": repr(self.holder),
            "hops": self.hops,
            "source": self.source,
            "served_by": self.served_by,
            "epochs": dict(self.epochs),
            "indexes": list(self.indexes),
            "views": list(self.views),
            "path": [step.as_dict() for step in self.steps],
        }

    def render(self) -> str:
        """Terminal rendering for ``repro explain-value``."""
        lines = [
            f"{self.attribute!r} of {self.object!r} = {self.value!r}",
            f"  holder: {self.holder!r} ({self.hops} hop(s), "
            f"source: {self.source}, served by: {self.served_by})",
            f"  epochs: schema={self.epochs['schema']} "
            f"binding={self.epochs['binding']} "
            f"holder_mutation={self.epochs['holder_mutation']}",
        ]
        if self.indexes:
            lines.append(f"  tracked by: {', '.join(self.indexes)}")
        if self.views:
            lines.append(f"  materialized in: {', '.join(self.views)}")
        lines.append("  path:")
        for step in self.steps:
            arrow = f" --[{step.via}]-->" if step.via else "  (holder)"
            lines.append(f"    {step.object!r}{arrow}")
            for decision in step.decisions:
                verdict = (
                    "followed"
                    if decision["followed"]
                    else "bound but not permeable"
                    if decision["bound"] and not decision["permeable"]
                    else "permeable but unbound"
                    if decision["permeable"]
                    else "not permeable, unbound"
                )
                lines.append(
                    f"      {decision['rel_type']}: {verdict}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ValueProvenance {self.attribute!r} of {self.object!r} "
            f"holder={self.holder!r} hops={self.hops} source={self.source}>"
        )


def explain_value(obj, name: str) -> ValueProvenance:
    """Full provenance of ``obj.get_member(name)`` — without calling it.

    Walks the same chain the compiled plan dispatch walks (participant
    shadowing, the automatic ``surrogate``, first-bound-permeable-link in
    ``inheritor-in`` declaration order per level), recording every
    permeability decision.  Reports which epochs a memoised resolution is
    validated against, whether the read would be served by the holder memo
    or a fresh plan walk, and which value indexes track the reading.

    Raises exactly what the read would raise
    (:class:`~repro.errors.ObjectDeletedError`,
    :class:`~repro.errors.UnknownAttributeError`).  Needs no observability
    attached.
    """
    if obj._deleted:
        raise ObjectDeletedError(f"{obj!r} was deleted")
    schema = _resolution.schema_epoch()
    memo = obj._member_memo.get(name)
    served_by = (
        "holder-memo"
        if memo is not None
        and memo[0] == schema
        and memo[1] == obj._binding_epoch
        else "plan-walk"
    )

    steps: List[ProvenanceStep] = []
    current = obj
    hops = 0
    value: Any = None
    source = "unknown"
    while True:
        if current._deleted:
            raise ObjectDeletedError(f"{current!r} was deleted")
        participants = getattr(current, "_participants", None)
        if participants is not None and name in participants:
            raw = participants[name]
            value = list(raw) if isinstance(raw, tuple) else raw
            source = "participant"
            steps.append(ProvenanceStep(current, None, []))
            break
        if name == "surrogate":
            value = current.surrogate
            source = "surrogate"
            steps.append(ProvenanceStep(current, None, []))
            break
        decisions: List[Dict[str, Any]] = []
        chosen = None
        links = current._links_as_inheritor
        for rel_type in current.object_type.inheritor_in:
            permeable = rel_type.is_permeable(name)
            link = links.get(rel_type.name)
            followed = permeable and link is not None and chosen is None
            decisions.append(
                {
                    "rel_type": rel_type.name,
                    "permeable": permeable,
                    "bound": link is not None,
                    "followed": followed,
                }
            )
            if followed:
                chosen = link
        if chosen is not None:
            steps.append(
                ProvenanceStep(current, chosen.rel_type.name, decisions)
            )
            current = chosen.transmitter
            hops += 1
            continue
        # No bound permeable link: this level is the holder.
        steps.append(ProvenanceStep(current, None, decisions))
        local = current._local_value(name, _UNSET)
        if local is not _UNSET:
            value = local
            source = "local-attribute" if hops == 0 else "transmitter-attribute"
            break
        container = current._subclasses.get(name)
        if container is not None:
            value = container.members()
            source = "subclass"
            break
        rel_container = current._subrels.get(name)
        if rel_container is not None:
            value = rel_container.members()
            source = "subrel"
            break
        spec = current.object_type.effective_attribute(name)
        if spec is not None:
            value = spec.default if spec.has_default else None
            source = "default" if spec.has_default else "declared-unset"
            break
        if getattr(current.object_type, "allow_dynamic", False):
            raise UnknownAttributeError(
                f"{current!r} has no value for dynamic attribute {name!r}"
            )
        raise UnknownAttributeError(
            f"type {current.object_type.name!r} has no member {name!r}"
        )

    holder = steps[-1].object
    indexes: List[str] = []
    database = getattr(obj, "database", None)
    manager = getattr(database, "indexes", None)
    if manager is not None:
        for index in manager._by_attr.get(name, ()):
            if obj.surrogate in index._entries:
                indexes.append(index.label)
    views: List[str] = []
    view_manager = getattr(database, "views", None)
    if view_manager is not None:
        view = view_manager._views.get(obj.object_type)
        if view is not None and view.schema_epoch == schema:
            col = view.col_of.get(name)
            vrow = view.row_of.get(obj.surrogate)
            if col is not None and vrow is not None:
                cell = view.columns[col][vrow]
                try:
                    fresh = bool(cell == value)
                except Exception:  # noqa: BLE001 — incomparable: identity
                    fresh = cell is value
                views.append(
                    f"type:{obj.object_type.name}.{name} "
                    f"({'fresh' if fresh else 'stale'})"
                )
    return ValueProvenance(
        obj,
        name,
        value,
        holder,
        hops,
        steps,
        source,
        served_by,
        {
            "schema": schema,
            "binding": obj._binding_epoch,
            "holder_mutation": holder._mutation_epoch,
        },
        indexes,
        views,
    )
