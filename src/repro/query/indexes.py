"""Incrementally-maintained extent and attribute-value indexes.

Every query used to be a full scan: the executor walked the whole class
extent (or, worse, ``Database.objects_of_type`` walked *every live object
in the database*) and evaluated the ``where`` expression per object.  The
paper's workloads — interface lookups, component selection over gate and
steel libraries (§4.2, §6) — are selective-read heavy, so this module
gives the read path sub-linear access paths:

* **Per-type extent index** — the :class:`IndexManager` mirrors the
  database's object registry into per-concrete-type buckets (adoption
  order preserved), so ``objects_of_type`` is O(result), not O(database).
  Subtype closures (``conforms_to`` is reachability over ``inheritor-in``
  declarations) are cached and validated against the schema epoch plus a
  type-population version.

* **Secondary value indexes** (:class:`ValueIndex`) — built lazily by the
  planner over one *source* (a class extent or a type) and one attribute:
  a hash index (value → objects) for equality and a sorted key array for
  range predicates.  Values are extracted through ``get_member``, i.e.
  with full value-inheritance semantics, so **inherited** members are
  indexable; the paper's ``select … from Implementations where Length …``
  resolves through transmitter chains and still hits the index.

Maintenance is incremental and synchronous:

* extent membership — hooks from :class:`~repro.engine.storage.Extent`;
* object lifecycle — hooks from ``Database._adopt`` /
  ``Database._forget_object``;
* value and binding changes — the :class:`~repro.query.maintain.Maintainer`,
  which the core layer calls before emitting each mutation's event,
  re-extracts the subject and the inheritors of its propagation cone.

On top of that, every index entry records the epoch triple of the
resolution engine — the owner's *binding epoch*, the resolved *holder*
and the holder's *mutation epoch* — and candidates are revalidated with
integer compares at lookup time: a stale entry whose value did not change
is re-stamped in place, one whose value changed is repaired
(``index.stale_repairs`` counts those).  Indexes record the *schema epoch* they were
built under and are dropped and rebuilt lazily after any type definition
or ``declare_inheritor_in`` (the drop-on-schema-change lifecycle).

The planner (:mod:`repro.query.planner`) only ever treats index lookups
as *candidate* sets: the executor re-applies the full ``where`` to every
candidate, so an index can only cause false positives (filtered out
again), never wrong rows — the correctness obligation on this module is
**no false negatives**, which the hypothesis suite in
``tests/test_indexes.py`` checks against the full-scan oracle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import resolution as _resolution
from ..errors import UnknownAttributeError

__all__ = ["IndexManager", "ValueIndex"]

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.
TSAN: Any = None

#: Value-kind tags used to guard range sargability (mixed-kind comparisons
#: raise in the expression language, so a range scan is only offered when
#: the whole index is comparable with the literal).
KIND_NUM = 0
KIND_STR = 1
KIND_OTHER = 2

#: Bisect key over ``ValueIndex._sorted``: an entry's ``(kind, value)`` rank.
_RANK = itemgetter(0)


def kind_of(value: Any) -> int:
    """Classify a value for range-comparability purposes."""
    if isinstance(value, bool):
        return KIND_NUM
    if isinstance(value, (int, float)):
        return KIND_OTHER if value != value else KIND_NUM  # NaN is OTHER
    if isinstance(value, str):
        return KIND_STR
    return KIND_OTHER


def extract_value(obj: Any, attr: str) -> Any:
    """The value the expression evaluator would see for a bare ``attr``.

    Mirrors :meth:`repro.expr.context.EvalContext.lookup` +
    :meth:`repro.expr.ast.Name.evaluate` with the default
    ``unresolved_as_literal=True``: unresolved names evaluate to their own
    spelling (the paper's unquoted enum-label convention).  Any *other*
    exception propagates; value indexes and view cells both extract
    through here, and a view taints the row.
    """
    try:
        return obj.get_member(attr)
    except (KeyError, UnknownAttributeError):
        return attr


class _Entry:
    """One indexed object: its extracted value plus the epoch snapshot
    (owner binding epoch, resolved holder, holder mutation epoch) that
    lets lookups revalidate with integer compares."""

    __slots__ = ("obj", "value", "hashable", "rank", "binding_epoch",
                 "holder", "holder_mutation")

    def __init__(self, obj, value, hashable, rank, binding_epoch, holder,
                 holder_mutation):
        self.obj = obj
        self.value = value
        self.hashable = hashable
        self.rank = rank
        self.binding_epoch = binding_epoch
        self.holder = holder
        self.holder_mutation = holder_mutation


class ValueIndex:
    """A secondary index over one attribute of one source.

    ``source_kind`` is ``"class"`` (a named extent) or ``"type"`` (all
    live conforming objects).  Hash buckets serve equality; a sorted
    ``(rank, surrogate)`` array serves ranges.  Unhashable values (lists
    from subclass containers, etc.) live in an always-included pool, so
    they can never be missed — the residual filter decides.
    """

    __slots__ = ("manager", "source_kind", "source_name", "source_type",
                 "attr", "schema_epoch", "_entries", "_buckets",
                 "_unhashable", "_sorted", "_kind_counts")

    def __init__(self, manager: "IndexManager", source_kind: str,
                 source_name: str, source_type, attr: str):
        self.manager = manager
        self.source_kind = source_kind
        self.source_name = source_name
        self.source_type = source_type
        self.attr = attr
        self.schema_epoch = _resolution.schema_epoch()
        self._entries: Dict[Any, _Entry] = {}
        self._buckets: Dict[Any, Dict[Any, Any]] = {}
        self._unhashable: Dict[Any, Any] = {}
        #: Sorted (rank, surrogate integer, surrogate) triples for
        #: comparable values.  rank is (KIND, value); the integer breaks
        #: ties at C speed (the surrogate itself only across identifier
        #: spaces), keeping every element totally ordered so bisect
        #: insert/remove are exact.
        self._sorted: List[Tuple[Tuple[int, Any], int, Any]] = []
        self._kind_counts = [0, 0, 0]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def label(self) -> str:
        """``kind:source.attr`` — how audit records and EXPLAIN name it."""
        return f"{self.source_kind}:{self.source_name}.{self.attr}"

    def __repr__(self) -> str:
        return f"<ValueIndex {self.label} n={len(self._entries)}>"

    # -- membership maintenance ------------------------------------------------

    def build(self, members) -> None:
        for obj in members:
            if not obj._deleted:
                self.insert(obj)

    def insert(self, obj) -> None:
        san = TSAN
        if san is not None:
            san.write(("index", id(self)), label=f"index:{self.source_name}.{self.attr}")
        surrogate = obj.surrogate
        if surrogate in self._entries:
            self._remove_entry(surrogate)
        value = extract_value(obj, self.attr)
        kind = kind_of(value)
        rank = None
        hashable = True
        try:
            bucket = self._buckets.get(value)
            if bucket is None:
                bucket = self._buckets[value] = {}
            bucket[surrogate] = obj
        except TypeError:
            hashable = False
            self._unhashable[surrogate] = obj
            kind = KIND_OTHER
        if kind != KIND_OTHER:
            rank = (kind, value)
            insort(self._sorted, (rank, surrogate.value, surrogate))
        self._kind_counts[kind] += 1
        self._entries[surrogate] = _Entry(
            obj, value, hashable, rank, *self._stamp(obj)
        )

    def _stamp(self, obj) -> Tuple[int, Any, int]:
        """The epoch snapshot of a freshly extracted entry: get_member
        memoised the holder if the name is a plan entry and the chain
        consists of plain objects; otherwise the object itself is the
        authority."""
        memo = obj._member_memo.get(self.attr)
        if (memo is not None and memo[0] == _resolution.schema_epoch()
                and memo[1] == obj._binding_epoch):
            holder = memo[2]
        else:
            holder = obj
        return obj._binding_epoch, holder, holder._mutation_epoch

    def remove(self, obj) -> None:
        self._remove_entry(obj.surrogate)

    def _remove_entry(self, surrogate) -> None:
        san = TSAN
        if san is not None:
            san.write(("index", id(self)), label=f"index:{self.source_name}.{self.attr}")
        entry = self._entries.pop(surrogate, None)
        if entry is None:
            return
        if entry.hashable:
            bucket = self._buckets.get(entry.value)
            if bucket is not None:
                bucket.pop(surrogate, None)
                if not bucket:
                    del self._buckets[entry.value]
            kind = kind_of(entry.value)
        else:
            self._unhashable.pop(surrogate, None)
            kind = KIND_OTHER
        if entry.rank is not None:
            key = (entry.rank, surrogate.value, surrogate)
            position = bisect_left(self._sorted, key)
            if (position < len(self._sorted)
                    and self._sorted[position] == key):
                del self._sorted[position]
        self._kind_counts[kind] -= 1

    def refresh_if_tracked(self, obj) -> bool:
        """Re-extract one object's value if this index tracks it."""
        if obj.surrogate not in self._entries:
            return False
        if obj._deleted:
            self._remove_entry(obj.surrogate)
        else:
            self.insert(obj)
        return True

    # -- lookups ---------------------------------------------------------------

    def estimate_eq(self, key) -> int:
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            bucket = None
        return (len(bucket) if bucket else 0) + len(self._unhashable)

    def lookup_eq(self, key) -> List[Any]:
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            bucket = None
        candidates = list(bucket.values()) if bucket else []
        if self._unhashable:
            candidates.extend(self._unhashable.values())
        return candidates

    def range_supported(self, key) -> bool:
        """A range scan is only exact when every indexed value compares
        with the literal — otherwise the full scan's comparison error must
        be allowed to happen, so the planner falls back."""
        kind = kind_of(key)
        counts = self._kind_counts
        if counts[KIND_OTHER]:
            return False
        if kind == KIND_NUM:
            return counts[KIND_STR] == 0
        if kind == KIND_STR:
            return counts[KIND_NUM] == 0
        return False

    def range_span(self, bounds: Sequence[Tuple[str, Any]]) -> Tuple[int, int]:
        """The slice ``[low, high)`` of ``_sorted`` inside every ``(op,
        key)`` bound: one bisect per bound, intersected, so a two-sided
        range costs two.  An empty or inverted interval is an empty slice."""
        ranks = self._sorted
        low, high = 0, len(ranks)
        for op, key in bounds:
            rank = (kind_of(key), key)
            if op == ">":
                low = max(low, bisect_right(ranks, rank, key=_RANK))
            elif op == ">=":
                low = max(low, bisect_left(ranks, rank, key=_RANK))
            elif op == "<":
                high = min(high, bisect_left(ranks, rank, key=_RANK))
            else:  # "<="
                high = min(high, bisect_right(ranks, rank, key=_RANK))
        return low, max(low, high)

    def lookup_span(self, span: Tuple[int, int]) -> List[Any]:
        """The objects of a :meth:`range_span` slice, in value order."""
        low, high = span
        entries = self._entries
        return [entries[surrogate].obj
                for _, _, surrogate in self._sorted[low:high]]

    def validate(self, candidates: List[Any]) -> None:
        """Self-heal: re-extract any candidate whose epoch snapshot is
        stale (two integer compares per candidate on the happy path).

        The epochs move on writes to *any* member of the holder, so a
        stale entry whose value is unchanged is only re-stamped; the
        buckets and sorted array stay as they are and no repair counts.
        """
        entries = self._entries
        repaired = 0
        for obj in candidates:
            entry = entries.get(obj.surrogate)
            if entry is None:
                continue
            if (entry.binding_epoch != obj._binding_epoch
                    or entry.holder_mutation != entry.holder._mutation_epoch):
                if not obj._deleted:
                    value = extract_value(obj, self.attr)
                    old = entry.value
                    if value is old or (type(value) is type(old) and value == old):
                        (entry.binding_epoch, entry.holder,
                         entry.holder_mutation) = self._stamp(obj)
                        continue
                self.refresh_if_tracked(obj)
                repaired += 1
                self.manager._audit(
                    "index.self_heal", obj, attribute=self.attr, index=self.label
                )
        if repaired:
            self.manager._bump("index.stale_repairs", repaired)


class IndexManager:
    """Per-database index registry, maintenance hub and statistics.

    Attached as ``Database.indexes``.  The per-type extent index is always
    on (it mirrors ``_adopt``/``_forget_object`` at O(1) each); value
    indexes are built on first use by the planner once a source is at
    least ``min_index_source`` objects (set it to 0 to force indexing in
    tests), and ``auto = False`` disables planner index selection entirely
    (benchmark baseline + oracle mode).
    """

    def __init__(self, database):
        self.database = database
        self.auto = True
        self.min_index_source = 16
        self.stats: Dict[str, int] = {
            "index.hits": 0,
            "index.misses": 0,
            "index.maintenance": 0,
            "index.built": 0,
            "index.dropped": 0,
            "index.stale_repairs": 0,
            "index.type_lookups": 0,
        }
        self._adoption_seq = itertools.count(1)
        self._adopt_order: Dict[Any, int] = {}
        self._by_type: Dict[Any, Dict[Any, Any]] = {}
        self._types_version = 0
        self._closures: Dict[int, Tuple[Tuple[int, int], Tuple[Any, ...]]] = {}
        self._value_indexes: Dict[Tuple[str, str, str], ValueIndex] = {}
        self._by_attr: Dict[str, List[ValueIndex]] = {}
        self._class_indexes: Dict[str, List[ValueIndex]] = {}
        self._type_indexes: List[ValueIndex] = []

    # -- statistics ------------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount
        obs = self.database.obs
        if obs is not None:
            obs.metrics.counter(key).inc(amount)

    def _audit(self, kind: str, subject, **detail) -> None:
        """Causal audit record for a maintenance action (no-op unless an
        audit log is attached — one attribute load and a branch)."""
        obs = self.database.obs
        if obs is not None:
            audit = obs.audit
            if audit is not None:
                audit.record(kind, subject, **detail)

    def stats_snapshot(self) -> Dict[str, int]:
        snapshot = dict(self.stats)
        snapshot["index.value_indexes"] = len(self._value_indexes)
        snapshot["index.indexed_entries"] = sum(
            len(index) for index in self._value_indexes.values()
        )
        return snapshot

    # -- object-registry hooks (synchronous, always on) ------------------------

    def object_adopted(self, obj) -> None:
        san = TSAN
        if san is not None:
            san.write(("extents", id(self)), label="extents")
        self._adopt_order[obj.surrogate] = next(self._adoption_seq)
        bucket = self._by_type.get(obj.object_type)
        if bucket is None:
            bucket = self._by_type[obj.object_type] = {}
            self._types_version += 1
        bucket[obj.surrogate] = obj
        if self._type_indexes:
            for index in self._type_indexes:
                if obj.object_type.conforms_to(index.source_type):
                    index.insert(obj)
                    self._bump("index.maintenance")

    def object_forgotten(self, obj) -> None:
        san = TSAN
        if san is not None:
            san.write(("extents", id(self)), label="extents")
        self._adopt_order.pop(obj.surrogate, None)
        bucket = self._by_type.get(obj.object_type)
        if bucket is not None:
            bucket.pop(obj.surrogate, None)
        if self._value_indexes:
            for index in self._value_indexes.values():
                if obj.surrogate in index._entries:
                    index.remove(obj)
                    self._bump("index.maintenance")

    # -- extent hooks (synchronous, from Extent.add/discard) --------------------

    def extent_member_added(self, extent, obj) -> None:
        for index in self._class_indexes.get(extent.name, ()):
            index.insert(obj)
            self._bump("index.maintenance")

    def extent_member_removed(self, extent, obj) -> None:
        for index in self._class_indexes.get(extent.name, ()):
            index.remove(obj)
            self._bump("index.maintenance")

    # -- the per-type extent index ----------------------------------------------

    def _closure(self, resolved) -> Tuple[Any, ...]:
        """Concrete types with buckets that conform to ``resolved``."""
        version = (_resolution.schema_epoch(), self._types_version)
        cached = self._closures.get(id(resolved))
        if cached is not None and cached[0] == version:
            return cached[1]
        types = tuple(
            concrete for concrete in self._by_type
            if concrete.conforms_to(resolved)
        )
        self._closures[id(resolved)] = (version, types)
        return types

    def objects_of_type(self, resolved, include_subtypes: bool = True) -> List[Any]:
        """All live objects of a type, in the registry's adoption order —
        O(result), serving what used to be a full-database scan."""
        if not include_subtypes:
            self._bump("index.type_lookups")
            bucket = self._by_type.get(resolved)
            return list(bucket.values()) if bucket else []
        groups = self.type_groups_of(resolved)
        if not groups:
            return []
        if len(groups) == 1:
            return groups[0][1]
        merged = [obj for _, members in groups for obj in members]
        order = self._adopt_order
        merged.sort(key=lambda obj: order[obj.surrogate])
        return merged

    def type_groups_of(self, resolved) -> List[Tuple[Any, List[Any]]]:
        """:meth:`objects_of_type` split by concrete type, unmerged: one
        ``(type, live objects in adoption order)`` pair per conforming
        type with instances.  A polymorphic full scan runs per type over
        these and orders only its matches."""
        self._bump("index.type_lookups")
        by_type = self._by_type
        return [
            (concrete, list(by_type[concrete].values()))
            for concrete in self._closure(resolved)
            if by_type[concrete]
        ]

    def type_population(self, resolved, include_subtypes: bool = True) -> int:
        """Size of :meth:`objects_of_type` without materialising it."""
        if not include_subtypes:
            bucket = self._by_type.get(resolved)
            return len(bucket) if bucket else 0
        return sum(
            len(self._by_type[concrete]) for concrete in self._closure(resolved)
        )

    def concrete_types_of(self, resolved) -> List[Any]:
        """Concrete types with live instances conforming to ``resolved``."""
        return [
            concrete for concrete in self._closure(resolved)
            if self._by_type[concrete]
        ]

    def type_groups(self) -> List[Tuple[Any, List[Any]]]:
        """Every live object, grouped by concrete type (adoption order
        within each group) — the batch form of the extent index, served
        in O(objects) with no per-object dispatch.  The constraint sweep
        runs its compiled scans over these groups."""
        return [
            (type_, list(bucket.values()))
            for type_, bucket in self._by_type.items()
            if bucket
        ]

    # -- value indexes ----------------------------------------------------------

    def value_index(self, source_kind: str, source_name: str,
                    attr: str) -> Optional[ValueIndex]:
        """The valid value index for (source, attr), or None."""
        index = self._value_indexes.get((source_kind, source_name, attr))
        if index is not None and index.schema_epoch != _resolution.schema_epoch():
            # Drop-on-schema-change: permeability, inheritor-in and type
            # definitions can all change what get_member resolves.
            self._drop(index)
            return None
        return index

    def ensure_value_index(self, source_kind: str, source_name: str,
                           source_type, attr: str) -> ValueIndex:
        index = self.value_index(source_kind, source_name, attr)
        if index is not None:
            return index
        index = ValueIndex(self, source_kind, source_name, source_type, attr)
        if source_kind == "class":
            extent = self.database._classes.get(source_name)
            members = extent.members() if extent is not None else []
            self._class_indexes.setdefault(source_name, []).append(index)
        else:
            members = self.objects_of_type(source_type)
            self._type_indexes.append(index)
        index.build(members)
        self._value_indexes[(source_kind, source_name, attr)] = index
        self._by_attr.setdefault(attr, []).append(index)
        self._bump("index.built")
        return index

    def usable_value_index(self, source_kind: str, source_name: str,
                           source_type, attr: str,
                           source_size: int) -> Optional[ValueIndex]:
        """The value index the planner may use, building lazily.

        Below ``min_index_source`` objects a scan is cheap enough that no
        new index is built — but one that already exists is still used.
        """
        if source_size < self.min_index_source:
            return self.value_index(source_kind, source_name, attr)
        return self.ensure_value_index(source_kind, source_name, source_type, attr)

    def _drop(self, index: ValueIndex) -> None:
        self._value_indexes.pop(
            (index.source_kind, index.source_name, index.attr), None
        )
        attr_list = self._by_attr.get(index.attr)
        if attr_list and index in attr_list:
            attr_list.remove(index)
        if index.source_kind == "class":
            class_list = self._class_indexes.get(index.source_name)
            if class_list and index in class_list:
                class_list.remove(index)
        elif index in self._type_indexes:
            self._type_indexes.remove(index)
        self._bump("index.dropped")
