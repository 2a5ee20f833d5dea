"""Update-event bus.

The paper relies on change notification twice: §2/§4.1 (the inheritance
relationship's attributes inform users about transmitter changes, together
with "trigger mechanisms") and §6 (conflict identification through explicit
relationships).  The event bus is the substrate both the consistency
subsystem (:mod:`repro.consistency`) and the lock manager build on.

Event kinds emitted by the core layer:

========================  =====================================================
kind                      data
========================  =====================================================
``attribute_updated``     ``attribute``, ``old``, ``new``
``attribute_restored``    ``attribute`` (direct ``_attrs`` restore: txn
                          abort, version revert-and-reject, merge apply)
``object_deleted``        —
``subobject_added``       ``subclass``, ``member``
``subobject_removed``     ``subclass``, ``member``
``relationship_created``  ``subrel``, ``relationship``
``relationship_removed``  ``subrel``, ``relationship``
``inheritor_bound``       ``rel_type``, ``transmitter``, ``link``
``inheritor_unbound``     ``rel_type``, ``transmitter``
``object_created``        ``class_name`` (emitted by the database facade)
========================  =====================================================

Every event carries ``subject`` — the object it happened to.  An event
the core layer publishes after a member change or a bind/unbind also
carries ``cone``: the propagation cone the derived-state maintainer walked
for it (:class:`repro.query.maintain.Cone`), or None when nothing needed
the walk.  The cone is not part of ``data``, so it stays out of every
rendering of the payload.

Causal stamping
---------------

Every event is stamped with a **process-global** monotonic sequence number
(``seq``) so histories and ring buffers from different databases merge into
one deterministic order, plus a causal context:

* ``cause`` — the ``seq`` of the event (or audit operation) whose handler
  emitted this one, ``None`` for root events;
* ``trace`` — the ``seq`` of the root of the causal chain (a root event's
  ``trace`` is its own ``seq``).

The bus maintains a cause stack: while an event's handlers run, its
``(seq, trace)`` is on top, so anything a handler emits — trigger
consequences, consistency adaptations, index maintenance — is linked to
its parent automatically.  The provenance layer (:mod:`repro.obs.provenance`)
reconstructs per-mutation propagation cones from exactly this.

``ts`` (``time.time()``) is stamped when anyone can observe the event —
history recording on, or at least one handler subscribed.  A quiet bus
skips the clock read so the unobserved emit path stays free of syscalls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "EventBus", "Subscription", "next_seq"]

#: Process-global event sequence.  Shared by every bus (and by the audit
#: log's derived records) so any two stamped records are totally ordered.
_GLOBAL_SEQ = itertools.count(1)

#: Draw the next global sequence number (used by the provenance layer for
#: derived audit records that are not bus events).
next_seq = _GLOBAL_SEQ.__next__


@dataclass(frozen=True)
class Event:
    """One change notification."""

    kind: str
    subject: Any
    data: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    ts: float = 0.0
    cause: Optional[int] = None
    trace: int = 0
    #: The maintainer's propagation cone for this mutation (see above).
    cone: Any = field(default=None, compare=False, repr=False)

    def __getattr__(self, name: str) -> Any:
        # Dunder lookups (``__deepcopy__``, ``__getstate__``, …) come from
        # copy/pickle/inspect machinery probing for optional protocols;
        # answering them out of ``data`` would corrupt those protocols, so
        # refuse immediately without touching the payload.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None


Handler = Callable[[Event], None]


@dataclass(frozen=True)
class Subscription:
    """Token returned by :meth:`EventBus.subscribe`; pass to unsubscribe."""

    kind: str
    token: int


class EventBus:
    """Synchronous publish/subscribe hub.

    Handlers run inline in emission order; a handler registered for the
    wildcard kind ``"*"`` receives every event.  Handler exceptions
    propagate to the mutating call — consistency hooks are part of the
    update, exactly the semantics triggers need.
    """

    WILDCARD = "*"

    def __init__(self, record: bool = False, history_limit: int = 10_000):
        self._handlers: Dict[str, Dict[int, Handler]] = {}
        self._tokens = itertools.count(1)
        #: The causal-context stack: ``(seq, trace)`` of the event (or audit
        #: operation) whose handlers are currently running, innermost last.
        self._causes: List[Tuple[int, int]] = []
        self.record = record
        self.history_limit = history_limit
        self.history: List[Event] = []

    def subscribe(self, kind: str, handler: Handler) -> Subscription:
        """Register ``handler`` for events of ``kind`` (or ``"*"``)."""
        token = next(self._tokens)
        self._handlers.setdefault(kind, {})[token] = handler
        return Subscription(kind, token)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a handler; unknown subscriptions are ignored."""
        handlers = self._handlers.get(subscription.kind)
        if handlers is not None:
            handlers.pop(subscription.token, None)

    # -- causal context (used by repro.obs.provenance) ------------------------

    def cause_context(self) -> Optional[Tuple[int, int]]:
        """The ``(seq, trace)`` on top of the cause stack, if any."""
        causes = self._causes
        return causes[-1] if causes else None

    def push_cause(self, seq: int, trace: int) -> None:
        """Open a synthetic causal frame (an audit *operation*): events
        emitted until the matching :meth:`pop_cause` are its children."""
        self._causes.append((seq, trace))

    def pop_cause(self) -> None:
        self._causes.pop()

    # -- emission --------------------------------------------------------------

    def emit(
        self, kind: str, subject: Any = None, *, cone: Any = None, **data: Any
    ) -> Event:
        """Publish an event and run its handlers synchronously."""
        seq = next(_GLOBAL_SEQ)
        causes = self._causes
        if causes:
            cause, trace = causes[-1]
        else:
            cause, trace = None, seq
        handlers = self._handlers.get(kind)
        wildcards = self._handlers.get(self.WILDCARD)
        observed = handlers or wildcards or self.record
        event = Event(
            kind, subject, data, seq, _time() if observed else 0.0, cause, trace,
            cone,
        )
        if self.record:
            self.history.append(event)
            if len(self.history) > self.history_limit:
                del self.history[: len(self.history) - self.history_limit]
        if handlers or wildcards:
            causes.append((seq, trace))
            try:
                if handlers:
                    for handler in list(handlers.values()):
                        handler(event)
                if wildcards:
                    for handler in list(wildcards.values()):
                        handler(event)
            finally:
                causes.pop()
        return event

    def events_of(self, kind: str) -> Tuple[Event, ...]:
        """Recorded events of one kind (requires ``record=True``)."""
        return tuple(event for event in self.history if event.kind == kind)
