"""Span recording for the traced run.

The traced run wraps the public entry points of each ``src/repro`` package
with span recorders, from this file, so no program code changes.  Each span
keeps a name, start, end and parent; spans stay in memory until the run
ends.  A layer's self time is its span time minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.composition import composite
from repro.core.objects import DBObject, LocalRelClass, LocalSubclass
from repro.engine import integrity, persistence
from repro.engine.database import Database
from repro.engine.events import EventBus
from repro.obs.recorder import FlightRecorder
from repro.query import executor, parser
from repro.txn.locks import LockTable
from repro.txn.transactions import Transaction
from repro.versions import diff as version_diff
from repro.versions import merge as version_merge

#: The package re-exports a function of the same name, so the module
#: is taken from the import system.
configuration = importlib.import_module("repro.composition.configuration")


class SpanRecorder:
    """Spans in parallel lists: name, start, end, parent index, count."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[int, int] = {}
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def exit(self) -> None:
        end = perf_counter()
        self.ends[self._stack.pop()] = end

    def count(self, index: int, amount: int) -> None:
        """Attach an item count to a span (e.g. reads in one batch)."""
        self.counts[index] = amount

    def __len__(self) -> int:
        return len(self.names)


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return traced


#: (owner, attribute, span name): the public entry points the traced run
#: wraps.  The session calls module-level functions through their module,
#: so the wrapped attribute is the one called.
ENTRY_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (Database, "create_object", "core.create"),
    (LocalSubclass, "create", "core.create"),
    (LocalRelClass, "create", "core.create"),
    (DBObject, "set_attribute", "core.set_attribute"),
    (EventBus, "emit", "engine.emit"),
    (integrity, "check_integrity", "engine.integrity"),
    (integrity, "sweep_constraints", "engine.sweep_constraints"),
    (persistence, "save", "engine.save"),
    (persistence, "dump_image", "engine.dump"),
    (persistence, "load", "engine.load"),
    (persistence, "load_image", "engine.load_image"),
    (parser, "parse_query", "query.parse"),
    (executor, "plan_source", "query.plan"),
    (executor, "execute_query", "query.execute"),
    (composite, "add_component", "composition.add_component"),
    (composite, "expand", "composition.expand"),
    (configuration, "bill_of_materials", "composition.bom"),
    (configuration, "where_used", "composition.where_used"),
    (version_diff, "derive_version", "versions.derive"),
    (version_diff, "diff_versions", "versions.diff"),
    (version_merge, "merge_versions", "versions.merge"),
    (Transaction, "read", "txn.read"),
    (Transaction, "set", "txn.set"),
    (Transaction, "commit", "txn.finish"),
    (Transaction, "abort", "txn.finish"),
    (Transaction, "checkin", "txn.finish"),
    (Transaction, "lock_expansion", "txn.lock_expansion"),
    (LockTable, "acquire", "txn.acquire"),
    (FlightRecorder, "tick", "obs.tick"),
)


class Instrumented:
    """Context manager installing span wrappers on every entry point and
    restoring the originals on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(self.recorder, name, original))
        return self.recorder

    def __exit__(self, *exc: Any) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


class SpanTable:
    """Derived per-span figures: duration, self time, root command."""

    def __init__(self, recorder: SpanRecorder):
        names = recorder.names
        parents = recorder.parents
        self.names = names
        self.parents = parents
        self.counts = recorder.counts
        self.duration = [end - start for start, end in zip(recorder.starts, recorder.ends)]
        covered = [0.0] * len(names)
        root = list(range(len(names)))
        in_emit = [False] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += self.duration[index]
                root[index] = root[parent]
                in_emit[index] = in_emit[parent] or names[parent] == "engine.emit"
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        self.root = root
        self.in_emit = in_emit

    def select(
        self,
        name: str,
        parent: Optional[str] = None,
        root: Optional[str] = None,
    ) -> List[int]:
        names, parents = self.names, self.parents
        found = []
        for index, span_name in enumerate(names):
            if span_name != name:
                continue
            if parent is not None:
                up = parents[index]
                if up < 0 or names[up] != parent:
                    continue
            if root is not None and names[self.root[index]] != root:
                continue
            found.append(index)
        return found

    def mean(self, indexes: List[int], self_time: bool = False) -> float:
        if not indexes:
            return 0.0
        values = self.self_time if self_time else self.duration
        return sum(values[i] for i in indexes) / len(indexes)

    def total(self, indexes: List[int]) -> float:
        return sum(self.duration[i] for i in indexes)
