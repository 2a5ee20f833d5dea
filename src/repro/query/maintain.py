"""Derived-state maintenance: one pass per mutation along its cone.

The core layer calls :class:`Maintainer` at each mutation point *before*
the event bus runs.  A member change (attribute write or restore,
subobject or local-relationship container content) walks the
permeability-aware cone of ``(subject, member)`` once and refreshes value
index entries, then view cells, for the subject and the cone's inheritors;
a bind or unbind refreshes whole entries and rows in the inheritor's
downstream subtree.  The walk happens only when a consumer exists (an index
on the member, any view for an attribute change, an attached event tap
for an update), and the walked :class:`Cone` rides on the event
(``Event.cone``) for the tap, the slow log and the audit log.  See
``docs/query.md``.
"""

from __future__ import annotations

from operator import attrgetter
from time import perf_counter
from typing import Any, List, Optional, Sequence, Tuple

from ..core import inheritance as _inheritance
from ..core import resolution as _resolution

__all__ = ["Cone", "Maintainer"]

_inheritor_of = attrgetter("inheritor")


class Cone:
    """One mutation's propagation cone and the maintenance done along it.

    ``member`` is None after a binding change.  ``refreshed`` lists the
    refreshed targets consumer by consumer — one list per mutation — and
    ``spans`` holds ``(index, count)`` per value index, ``(None, count)``
    for the views (each target's own type view).  ``duration`` is the
    maintainer's pass in seconds (walk and refresh), measured while a slow
    log is attached, for its ``propagation`` budget.
    """

    __slots__ = ("subject", "member", "reason", "links", "refreshed", "spans", "duration")

    def __init__(self, subject: Any, member: Optional[str], reason: str,
                 links: Sequence[Any]) -> None:
        self.subject = subject
        self.member = member
        self.reason = reason
        self.links = links
        self.refreshed: List[Any] = []
        self.spans: List[Tuple[Any, int]] = []
        self.duration = 0.0


class Maintainer:
    """Keeps one database's value indexes and views current
    (``Database.maintainer``)."""

    def __init__(self, database: Any) -> None:
        self.database = database
        self.indexes = database.indexes
        self.views = database.views

    def member_changed(self, obj: Any, member: str, reason: str) -> Optional[Cone]:
        """Refresh derived state after ``member`` of ``obj`` changed; the
        walked cone, or None when nothing needed it."""
        indexes = self.indexes._by_attr.get(member)
        # No view column holds a container: only attribute changes reach views.
        views = (self.views._views
                 if reason in ("attribute_updated", "attribute_restored") else None)
        obs = self.database.obs
        if not (indexes or views or (
                obs is not None and reason == "attribute_updated")):
            return None
        timed = obs is not None and obs.slowlog is not None
        started = perf_counter() if timed else 0.0
        cone = Cone(obj, member, reason, _inheritance.propagation_cone(obj, member))
        if indexes or views:
            self._refresh(cone, indexes or (), views)
        if timed:
            cone.duration = perf_counter() - started
        return cone

    def topology_changed(self, obj: Any, reason: str) -> Optional[Cone]:
        """Refresh derived state below ``obj`` after a bind or unbind,
        which can re-route any inherited member in its subtree."""
        indexes = list(self.indexes._value_indexes.values())
        views = self.views._views
        if not (indexes or views):
            return None
        cone = Cone(obj, None, reason, _inheritance.propagation_cone(obj))
        self._refresh(cone, indexes, views)
        return cone

    def _refresh(self, cone: Cone, indexes: Sequence[Any], views: Any) -> None:
        targets = [cone.subject]
        if cone.links:
            targets += map(_inheritor_of, cone.links)
        refreshed = cone.refreshed
        append = refreshed.append
        for index in indexes:
            refresh = index.refresh_if_tracked
            before = len(refreshed)
            for target in targets:
                if refresh(target):
                    append(target)
            if len(refreshed) > before:
                cone.spans.append((index, len(refreshed) - before))
        if refreshed:
            self.indexes._bump("index.maintenance", len(refreshed))
        if not views:
            return
        before = len(refreshed)
        epoch = _resolution.schema_epoch()
        member = cone.member
        for target in targets:
            view = views.get(target.object_type)
            if view is None or view.schema_epoch != epoch:
                continue
            if target._deleted:
                view.remove(target)
            elif (view.refresh_object(target) if member is None
                  else view.refresh_member(target, member)):
                append(target)
        if len(refreshed) > before:
            cone.spans.append((None, len(refreshed) - before))
            self.views._bump("query.view.refreshes", len(refreshed) - before)
