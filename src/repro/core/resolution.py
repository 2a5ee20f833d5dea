"""Compiled member-resolution plans with epoch-based invalidation.

The paper's central mechanism — value inheritance through typed
transmitter/inheritor links (§4.1) — used to be resolved by an
*interpretive walk*: every read re-scanned the type's ``inheritor-in``
declarations, asked each relationship type whether the member is permeable,
and recursively delegated up the abstraction hierarchy, so a k-level
interface chain paid k scans per read.

This module compiles that decision once per type:

* :class:`ResolutionPlan` — a per-:class:`~repro.core.objtype.TypeBase`
  table mapping every visible member name to a :class:`MemberEntry` that
  says *how* the name binds (automatic surrogate / attribute / subclass
  container / subrel container) and through *which* inheritance
  relationship types it may be inherited, with the paper's
  diamond-disambiguation order (``inheritor-in`` declaration order) baked
  in at compile time.

* **Epochs** — cheap monotonic counters that replace event fan-out for
  invalidation:

  - the global *schema epoch* (:func:`schema_epoch`), bumped whenever a
    type is defined or an ``inheritor-in:`` clause is declared.  Every
    plan records the epoch it was compiled under; a plan whose epoch is
    stale is recompiled lazily on next use.  Validation is one integer
    compare per read.
  - per-object *binding* and *mutation* epochs
    (``DBObject._binding_epoch`` / ``DBObject._mutation_epoch``).  The
    mutation epoch moves on attribute/subobject writes of that object;
    the binding epoch moves when the object's *resolution topology*
    changes — its own bind/unbind or any upstream binding change, because
    bumps propagate down the inheritor subtree at bind time.
    ``DBObject.get_member``'s holder memo therefore validates with O(1)
    integer compares instead of subscribing to the event bus or
    re-walking the chain.

The compiled plan preserves the interpretive semantics bit for bit:
declaration-order diamond resolution, permeability filtering, dynamic
attributes, local values on *unbound* inheritors, and frozen local
containers while bound.  :func:`naive_get_member` keeps the original walk
as an executable oracle — the property tests compare both resolvers over
randomized schemas, and benchmark E14 measures the speedup.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..errors import ObjectDeletedError, UnknownAttributeError
from .interning import intern_name

__all__ = [
    "MemberEntry",
    "ResolutionPlan",
    "plan_for",
    "compile_plan",
    "schema_epoch",
    "bump_schema_epoch",
    "resolution_stats",
    "reset_stats",
    "naive_binding_link",
    "naive_get_member",
    "naive_resolution_chain",
]

# ---------------------------------------------------------------------------
# schema epoch
# ---------------------------------------------------------------------------

#: The global schema epoch.  Read directly by the hot paths in
#: :mod:`repro.core.objects`; bump only through :func:`bump_schema_epoch`.
_SCHEMA_EPOCH = 0

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.
TSAN: Any = None


def schema_epoch() -> int:
    """The current global schema epoch."""
    return _SCHEMA_EPOCH


def bump_schema_epoch() -> int:
    """Advance the schema epoch, invalidating every compiled plan.

    Called by type definition and ``declare_inheritor_in``.  Plans are not
    eagerly recompiled — each is refreshed lazily the next time it is used.
    """
    global _SCHEMA_EPOCH
    san = TSAN
    if san is not None:
        san.write(("schema_epoch",), label="schema_epoch")
    _SCHEMA_EPOCH += 1
    return _SCHEMA_EPOCH


# ---------------------------------------------------------------------------
# compile statistics (process-global; per-database counters are emitted
# through the obs registry when a database handle is in scope)
# ---------------------------------------------------------------------------


class _PlanStats:
    __slots__ = ("compiles", "invalidations")

    def __init__(self) -> None:
        self.compiles = 0
        self.invalidations = 0


_STATS = _PlanStats()


def resolution_stats() -> Dict[str, int]:
    """Process-global plan statistics (also exported by obs snapshots)."""
    return {
        "resolution.plans_compiled": _STATS.compiles,
        "resolution.plan_invalidations": _STATS.invalidations,
        "resolution.schema_epoch": _SCHEMA_EPOCH,
    }


def reset_stats() -> None:
    _STATS.compiles = 0
    _STATS.invalidations = 0


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class MemberEntry:
    """How one member name binds on instances of one type.

    ``rels`` lists the names of the inheritance-relationship types the
    member is permeable through, in ``inheritor-in`` declaration order —
    the first *bound* one wins, which is exactly the paper's diamond
    disambiguation.  When no listed relationship is bound (or the tuple is
    empty), the name resolves locally: stored attribute value, subclass /
    subrel container, then the attribute spec's default.
    """

    __slots__ = (
        "name",
        "kind",
        "rels",
        "spec",
        "default",
        "check_subclass",
        "check_subrel",
        "slot",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        rels: Tuple[str, ...],
        spec,
        default: Any,
        check_subclass: bool,
        check_subrel: bool,
        slot: Any = None,
    ):
        self.name = name
        self.kind = kind
        self.rels = rels
        self.spec = spec
        self.default = default
        self.check_subclass = check_subclass
        self.check_subrel = check_subrel
        #: Column index of the member in the type's slotted store
        #: (:mod:`repro.core.slots`), or None for members without local
        #: attribute storage (surrogate, containers).  Slots follow the
        #: position in :attr:`ResolutionPlan.attribute_names` — the plan is
        #: the layout authority the store compiles from.
        self.slot = slot

    def __repr__(self) -> str:
        via = f" via {list(self.rels)}" if self.rels else ""
        return f"<MemberEntry {self.name} {self.kind}{via}>"


class ResolutionPlan:
    """The compiled member-dispatch table of one type.

    Attributes
    ----------
    schema_epoch:
        The global epoch the plan was compiled under.  A plan is valid
        exactly while ``plan.schema_epoch == resolution.schema_epoch()``.
    entries:
        Member name → :class:`MemberEntry` for every *visible* member
        (own and type-level inherited), including the automatic
        ``surrogate``.
    member_names:
        The visible member names in the canonical order
        (``surrogate``, attributes, subclasses, subrels; first occurrence
        wins) — the precompiled result of
        :meth:`~repro.core.objects.DBObject.visible_member_names`.
    attribute_names:
        Effective attribute names only (expansion / cloning iterate these).
    inherited_names:
        Names that may be inherited through at least one relationship.
    permeable_sets:
        Relationship-type name → frozenset of its permeable members, for
        every ``inheritor-in`` declaration — reused by the lock-expansion
        planner instead of rebuilding frozensets per lock plan.
    """

    __slots__ = (
        "type",
        "schema_epoch",
        "entries",
        "member_names",
        "attribute_names",
        "inherited_names",
        "permeable_sets",
    )

    def __init__(self, type_) -> None:
        self.type = type_
        self.schema_epoch = _SCHEMA_EPOCH
        rels_for: Dict[str, Tuple[str, ...]] = {}
        permeable_sets: Dict[str, frozenset] = {}
        for rel in type_.inheritor_in:
            permeable_sets[rel.name] = frozenset(rel.inheriting)
            for member in rel.inheriting:
                member = intern_name(member)
                rels_for[member] = rels_for.get(member, ()) + (rel.name,)
        self.permeable_sets = permeable_sets

        # Names are interned at compile time: plan entries, slot maps and
        # parsed query identifiers then probe each other by identity.
        effective_attrs = [intern_name(n) for n in type_.effective_attributes()]
        effective_subclasses = {
            intern_name(n): spec
            for n, spec in type_.effective_subclasses().items()
        }
        effective_subrels = {
            intern_name(n): spec for n, spec in type_.effective_subrels().items()
        }

        entries: Dict[str, MemberEntry] = {
            "surrogate": MemberEntry(
                "surrogate", "surrogate", (), None, None, False, False
            )
        }
        names = ["surrogate"]
        attr_names: list = []
        for name in effective_attrs:
            if name in entries:
                continue
            names.append(name)
            # effective_attribute() resolves diamonds first-declared-wins,
            # matching the object-level binding order.
            spec = type_.effective_attribute(name)
            entries[name] = MemberEntry(
                name,
                "attribute",
                rels_for.get(name, ()),
                spec,
                spec.default if spec is not None and spec.has_default else None,
                name in effective_subclasses,
                name in effective_subrels,
                len(attr_names),
            )
            attr_names.append(name)
        for name in effective_subclasses:
            if name in entries:
                continue
            names.append(name)
            entries[name] = MemberEntry(
                name, "subclass", rels_for.get(name, ()), None, None, True, False
            )
        for name in effective_subrels:
            if name in entries:
                continue
            names.append(name)
            entries[name] = MemberEntry(
                name, "subrel", rels_for.get(name, ()), None, None, False, True
            )
        # Permeability declarations are checked against the transmitter's
        # members, so normally every permeable name is already an effective
        # member here.  Guard the exotic cases anyway (the interpretive walk
        # consulted is_permeable() without an existence check): such names
        # delegate while bound but stay invisible to introspection.
        for name, rels in rels_for.items():
            if name not in entries:
                entries[name] = MemberEntry(
                    name, "inherited", rels, None, None, True, True
                )
        self.entries = entries
        self.member_names: Tuple[str, ...] = tuple(names)
        #: Slot order of the type's store: ``attribute_names[i]`` lives in
        #: column ``i`` (deduplicated; aligned with ``entry.slot``).
        self.attribute_names: Tuple[str, ...] = tuple(attr_names)
        self.inherited_names = frozenset(
            name for name, entry in entries.items() if entry.rels
        )

    def __repr__(self) -> str:
        return (
            f"<ResolutionPlan {self.type.name} epoch={self.schema_epoch} "
            f"members={len(self.entries)}>"
        )


def compile_plan(type_, obs=None) -> ResolutionPlan:
    """(Re)compile the plan for ``type_`` and install it on the type."""
    stale = type_._plan is not None
    plan = ResolutionPlan(type_)
    type_._plan = plan
    _STATS.compiles += 1
    if stale:
        _STATS.invalidations += 1
    if obs is not None:
        obs.metrics.counter("resolution.plans_compiled").inc()
        if stale:
            obs.metrics.counter("resolution.epoch_invalidations").inc()
    return plan


def plan_for(type_, obs=None) -> ResolutionPlan:
    """The valid plan for ``type_``, compiling lazily.

    Validation is O(1): one attribute load and one integer compare against
    the global schema epoch.
    """
    plan = type_._plan
    if plan is not None and plan.schema_epoch == _SCHEMA_EPOCH:
        return plan
    return compile_plan(type_, obs)


# ---------------------------------------------------------------------------
# the reference resolver (oracle)
# ---------------------------------------------------------------------------


def naive_binding_link(obj, name: str):
    """The first bound link ``name`` is inherited through — interpretive.

    Replicates the original per-read walk over ``inheritor-in`` in
    declaration order; kept as the oracle the plan-based resolution is
    tested (and benchmarked) against.
    """
    links = obj._links_as_inheritor
    for rel_type in obj.object_type.inheritor_in:
        if rel_type.is_permeable(name):
            link = links.get(rel_type.name)
            if link is not None:
                return link
    return None


def naive_get_member(obj, name: str) -> Any:
    """Reference member resolution — the pre-plan interpretive algorithm.

    Semantics must match :meth:`repro.core.objects.DBObject.get_member`
    (including the participant shadowing of relationship objects and every
    error condition); the property tests in ``tests/test_resolution.py``
    enforce the equivalence over randomized schemas.
    """
    if obj._deleted:
        raise ObjectDeletedError(f"{obj!r} was deleted")
    participants = getattr(obj, "_participants", None)
    if participants is not None and name in participants:
        value = participants[name]
        return list(value) if isinstance(value, tuple) else value
    if name == "surrogate":
        return obj.surrogate
    link = naive_binding_link(obj, name)
    if link is not None:
        obs = getattr(obj.database, "obs", None)
        if obs is not None:
            obs.metrics.counter("reads.inherited").inc()
        return naive_get_member(link.transmitter, name)
    if name in obj._attrs:
        return obj._attrs[name]
    container = obj._subclasses.get(name)
    if container is not None:
        return container.members()
    rel_container = obj._subrels.get(name)
    if rel_container is not None:
        return rel_container.members()
    spec = obj.object_type.effective_attribute(name)
    if spec is not None:
        return spec.default if spec.has_default else None
    if getattr(obj.object_type, "allow_dynamic", False):
        raise UnknownAttributeError(
            f"{obj!r} has no value for dynamic attribute {name!r}"
        )
    raise UnknownAttributeError(
        f"type {obj.object_type.name!r} has no member {name!r}"
    )


def naive_is_member_inherited(obj, name: str) -> bool:
    """Interpretive counterpart of ``DBObject.is_member_inherited``."""
    return naive_binding_link(obj, name) is not None


def naive_resolution_chain(obj, name: str) -> list:
    """The delegation chain ``naive_get_member`` walks for ``name``, as a
    list of objects: ``[obj, transmitter, …, holder]``.

    The interpretive oracle for value provenance: the inheritance path
    reported by :func:`repro.obs.provenance.explain_value` must equal this
    chain link for link (the hypothesis tests enforce it).  Participant
    shadowing and the automatic ``surrogate`` terminate the chain at the
    object itself, exactly as the recursion in :func:`naive_get_member`
    would.
    """
    chain = [obj]
    current = obj
    while True:
        participants = getattr(current, "_participants", None)
        if participants is not None and name in participants:
            return chain
        if name == "surrogate":
            return chain
        link = naive_binding_link(current, name)
        if link is None:
            return chain
        current = link.transmitter
        chain.append(current)
