"""Adaptation tracking on inheritance relationships (§2, §4.1).

*"If an update of the transmitter object occurs, the inheritor object
possibly has to be adapted since some local data do not fit the inherited
data any more.  In most cases this adaptation has to be done manually by a
user.  To inform the user about changes of the transmitter object the
attributes of the relationship can be used."*

The :class:`AdaptationTracker` implements exactly that: it listens on the
database's event bus; whenever a permeable member of a transmitter changes,
an :class:`AdaptationRecord` is appended for every affected inheritance
link.  The workflow is manual-by-default, as the paper prescribes — a
designer inspects :meth:`AdaptationTracker.pending`, adapts the inheritor,
and acknowledges the record.  Semi-automatic correction hooks are built on
top with :mod:`repro.consistency.triggers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.objects import DBObject, InheritanceLink
from ..core.surrogate import Surrogate

__all__ = ["AdaptationRecord", "AdaptationTracker"]


@dataclass
class AdaptationRecord:
    """One transmitter change a link's inheritor may have to adapt to."""

    link: InheritanceLink
    member: str
    kind: str  # 'attribute_updated' | 'subobject_added' | 'subobject_removed'
    old: Any = None
    new: Any = None
    seq: int = 0
    acknowledged: bool = False

    def describe(self) -> str:
        inheritor = self.link.inheritor
        return (
            f"{self.kind} of {self.member!r} on {self.link.transmitter!r} "
            f"affects {inheritor!r} (via {self.link.rel_type.name})"
        )


class AdaptationTracker:
    """Marks inheritance links whose inheritors may need adaptation."""

    def __init__(self, database):
        self.database = database
        self._records: Dict[Surrogate, List[AdaptationRecord]] = {}
        self._seq = 0
        bus = database.events
        self._subscriptions = [
            bus.subscribe("attribute_updated", self._on_attribute_updated),
            bus.subscribe("subobject_added", self._on_subobject_changed),
            bus.subscribe("subobject_removed", self._on_subobject_changed),
        ]
        database.consistency = self

    # -- event handling -----------------------------------------------------------

    def _on_attribute_updated(self, event) -> None:
        self._mark(event.subject, event.attribute, "attribute_updated",
                   old=event.old, new=event.new)

    def _on_subobject_changed(self, event) -> None:
        self._mark(event.subject, event.subclass, event.kind, new=event.member)

    def _mark(self, subject: DBObject, member: str, kind: str, old=None, new=None) -> None:
        """Record the change for every link it is visible through.

        The changed object may be the transmitter itself (attribute update)
        or a complex transmitter whose subclass content changed; in both
        cases ``member`` is the member name at ``subject``'s level.  Links
        further *up* the containment tree see the change under the name of
        the subclass the path passes through.
        """
        current: Optional[DBObject] = subject
        visible_member = member
        while current is not None:
            for link in current.inheritor_links:
                if link.rel_type.is_permeable(visible_member):
                    self._append(link, visible_member, kind, old, new)
            parent = current.parent
            if parent is None:
                break
            container = current._container
            if container is None:
                break
            visible_member = container.name
            kind = "subobject_updated"
            current = parent

    def _append(self, link: InheritanceLink, member: str, kind: str, old, new) -> None:
        self._seq += 1
        record = AdaptationRecord(
            link=link, member=member, kind=kind, old=old, new=new, seq=self._seq
        )
        self._records.setdefault(link.surrogate, []).append(record)

    # -- inspection -----------------------------------------------------------------

    @staticmethod
    def _links_of(target) -> List[InheritanceLink]:
        if isinstance(target, InheritanceLink):
            return [target]
        return list(target.inheritance_links)

    def _pending_of(self, key: Surrogate) -> List[AdaptationRecord]:
        """One link's unacknowledged records.  Records acknowledged
        directly (``record.acknowledged = True``, as auto-adapt triggers
        do) are dropped here, so the tracker keeps pending records only."""
        records = self._records.get(key)
        if not records:
            return []
        pending = [record for record in records if not record.acknowledged]
        if len(pending) < len(records):
            if pending:
                self._records[key] = pending
            else:
                del self._records[key]
        return pending

    def needs_adaptation(self, target) -> bool:
        """True when a link (or any link of an inheritor object) has
        unacknowledged records."""
        return bool(self.pending(target))

    def pending(self, target) -> List[AdaptationRecord]:
        """Unacknowledged records for a link or an inheritor object."""
        found: List[AdaptationRecord] = []
        for link in self._links_of(target):
            found.extend(self._pending_of(link.surrogate))
        found.sort(key=lambda record: record.seq)
        return found

    def all_pending(self) -> List[AdaptationRecord]:
        """Every unacknowledged record in the database."""
        found = [
            record for key in list(self._records) for record in self._pending_of(key)
        ]
        found.sort(key=lambda record: record.seq)
        return found

    def inheritors_needing_adaptation(self) -> List[DBObject]:
        """Distinct inheritors with pending records (the user's worklist)."""
        seen: Dict[Surrogate, DBObject] = {}
        for record in self.all_pending():
            inheritor = record.link.inheritor
            seen.setdefault(inheritor.surrogate, inheritor)
        return list(seen.values())

    # -- acknowledgement ---------------------------------------------------------------

    def acknowledge(self, target, up_to_seq: Optional[int] = None) -> int:
        """Mark pending records as adapted and forget them; returns how
        many were closed."""
        count = 0
        for record in self.pending(target):
            if up_to_seq is not None and record.seq > up_to_seq:
                continue
            record.acknowledged = True
            count += 1
        if count:
            for link in self._links_of(target):
                self._pending_of(link.surrogate)
        return count

    def clear(self) -> None:
        self._records.clear()

    def detach(self) -> None:
        """Unsubscribe from the event bus."""
        for subscription in self._subscriptions:
            self.database.events.unsubscribe(subscription)
        self._subscriptions = []
