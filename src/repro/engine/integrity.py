"""Database integrity checker.

Verifies the structural invariants the engine maintains, independent of the
type-level constraints (:meth:`DBObject.check_constraints` handles those):

* registry: every tracked object is live, knows its database, and its
  surrogate matches its registry key;
* containment: parent/container pointers and container membership agree,
  and no object is in two containers;
* relationships: every participant back-references the relationship, and
  no live relationship references a deleted participant;
* inheritance links: both endpoints register the link, permeable members
  are still effective members of the transmitter's type, no object-level
  cycles;
* classes: every extent member is tracked and type-conformant.

The checker never mutates; it returns a list of :class:`Violation` records
so tests can inject corruption and assert precise findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from ..core.constraints import ExprConstraint
from ..core.objects import DBObject, RelationshipObject
from ..core.surrogate import Surrogate
from ..errors import ConstraintViolation, ExprEvaluationError
from ..expr.ast import Binary, Node
from ..expr.compile import compile_predicate, compiled_for
from .database import Database

__all__ = [
    "Violation",
    "VIOLATION_CODES",
    "check_integrity",
    "assert_integrity",
    "sweep_constraints",
]

#: Stable diagnostic code per violation kind — the REP0xx namespace of the
#: rule catalog (repro.analysis.diagnostics registers the metadata).
VIOLATION_CODES = {
    "registry": "REP001",
    "containment": "REP002",
    "relationship": "REP003",
    "inheritance": "REP004",
    "class": "REP005",
    "constraint": "REP006",
}


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    kind: str
    subject: Any
    detail: str

    @property
    def code(self) -> str:
        """The stable REP0xx diagnostic code for this kind of violation."""
        return VIOLATION_CODES.get(self.kind, "REP001")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.kind}] {self.subject!r}: {self.detail}"


def check_integrity(db: Database) -> List[Violation]:
    """Run every structural check; returns all violations found."""
    violations: List[Violation] = []
    objects = db.objects()
    tracked: Set[Surrogate] = {obj.surrogate for obj in objects}

    #: id(transmitter) -> ids of the links it registers, collected once per
    #: transmitter: a list membership test would compare every registered
    #: link through ``DBObject.__eq__``, O(fan-out) per link.
    registered: Dict[int, Set[int]] = {}
    for obj in objects:
        _check_registry(db, obj, violations)
        if obj.deleted:
            # The registry violation is recorded; deeper accessors would
            # raise ObjectDeletedError, so stop here for this object.
            continue
        _check_containment(obj, tracked, violations)
        if isinstance(obj, RelationshipObject):
            _check_relationship(obj, violations)
        _check_links(obj, violations, registered)

    _check_classes(db, tracked, violations)
    _check_containment_uniqueness(objects, violations)
    return violations


#: Per-type fused AND-conjunction of its expression constraints, cached by
#: constraint identity so the compiled-program cache (keyed on node
#: identity) hits across sweeps.  Revalidated against the constraint list.
_FUSED: Dict[int, Tuple[Tuple[int, ...], Node]] = {}


def _fused_constraint_node(type_: Any, exprs: List[ExprConstraint]) -> Node:
    ids = tuple(id(c) for c in exprs)
    hit = _FUSED.get(id(type_))
    if hit is not None and hit[0] == ids:
        return hit[1]
    node = exprs[0].node
    for constraint in exprs[1:]:
        node = Binary("and", node, constraint.node)
    _FUSED[id(type_)] = (ids, node)
    return node


def sweep_constraints(db: Database, compiled: bool = True) -> List[Violation]:
    """Batched sweep of every type-level value constraint.

    Live objects are grouped by concrete type; each type's expression
    constraints bind to their compiled slot program **once**, then run
    over the whole group — the constraint-side counterpart of the batch
    query executor.  Violations are *collected* (kind ``constraint``,
    code REP006), not raised, so diagnostics can report them all.

    ``compiled=False`` forces the tree-walking oracle
    (:meth:`ExprConstraint.naive_holds`); results are identical — the
    equivalence is part of the storage test suite.

    Structural restrictions (subrel ``where`` clauses) stay with
    :meth:`DBObject.check_constraints`: they carry binder scopes the slot
    program cannot see.
    """
    obs = getattr(db, "obs", None)
    violations: List[Violation] = []
    for type_, members in db.indexes.type_groups():
        if not type_.constraints:
            continue
        suspects = members
        if compiled:
            exprs = [c for c in type_.constraints if isinstance(c, ExprConstraint)]
            if exprs:
                # Phase 1: one batched scan of the fused AND-conjunction of
                # the type's expression constraints.  Objects the scan
                # passes satisfy every constraint and need no per-constraint
                # work — the common all-clean sweep is a single generated
                # loop per type.  Failures (and any evaluation error, which
                # aborts the scan) drop to the per-constraint phase below
                # for attribution.
                fused = _fused_constraint_node(type_, exprs)
                try:
                    outcome = compiled_for(fused, type_, obs).scan(members)
                except ExprEvaluationError:
                    outcome = None
                if outcome is not None:
                    passed = outcome[1]
                    if len(passed) == len(members):
                        suspects = []
                    else:
                        # Order-preserving difference: the scan keeps
                        # member order, so one forward merge suffices.
                        suspects = []
                        position = 0
                        for obj in members:
                            if position < len(passed) and passed[position] is obj:
                                position += 1
                            else:
                                suspects.append(obj)
        for constraint in type_.constraints:
            if compiled and isinstance(constraint, ExprConstraint):
                if not suspects:
                    continue
                predicate = compile_predicate(constraint.node, type_, obs)
                for obj in suspects:
                    try:
                        # A live object without a row (defensive; deleted
                        # objects never reach the buckets) gets the oracle.
                        ok = predicate(obj) if obj._row >= 0 else (
                            constraint.naive_holds(obj)
                        )
                    except ExprEvaluationError as exc:
                        violations.append(Violation(
                            "constraint",
                            obj,
                            f"constraint {constraint.source!r} failed to "
                            f"evaluate on {obj!r}: {exc}",
                        ))
                        continue
                    if not ok:
                        violations.append(Violation(
                            "constraint",
                            obj,
                            f"constraint {constraint.source!r} violated",
                        ))
            else:
                for obj in members:
                    try:
                        if isinstance(constraint, ExprConstraint):
                            ok = constraint.naive_holds(obj)
                        else:
                            ok = constraint.holds(obj)
                    except ConstraintViolation as exc:
                        violations.append(Violation(
                            "constraint", obj, str(exc)
                        ))
                        continue
                    if not ok:
                        violations.append(Violation(
                            "constraint",
                            obj,
                            f"constraint {constraint.source!r} violated",
                        ))
    return violations


def assert_integrity(db: Database) -> None:
    """Raise AssertionError listing violations, for test harnesses."""
    violations = check_integrity(db)
    if violations:
        raise AssertionError(
            "integrity violations:\n" + "\n".join(str(v) for v in violations)
        )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_registry(db: Database, obj: DBObject, out: List[Violation]) -> None:
    if obj.deleted:
        out.append(Violation("registry", obj, "deleted object still tracked"))
    if obj.database is not db:
        out.append(Violation("registry", obj, "object does not reference its database"))
    if db.get(obj.surrogate) is not obj:
        out.append(Violation("registry", obj, "registry key does not map back"))


def _check_containment(obj: DBObject, tracked: Set[Surrogate], out: List[Violation]) -> None:
    container = obj._container
    if container is None and isinstance(obj, RelationshipObject):
        container = obj._container_rel
    if (obj.parent is None) != (container is None):
        out.append(
            Violation("containment", obj, "parent and container pointers disagree")
        )
    if container is not None:
        if container.owner is not obj.parent:
            out.append(
                Violation("containment", obj, "container owner is not the parent")
            )
        if obj.surrogate not in container._members:
            out.append(
                Violation("containment", obj, "not a member of its own container")
            )
    for name in obj.subclass_names():
        for member in obj.subclass(name):
            if member.parent is not obj:
                out.append(
                    Violation(
                        "containment",
                        member,
                        f"member of {obj!r}.{name} has wrong parent",
                    )
                )
            if member.deleted:
                out.append(
                    Violation(
                        "containment", member, f"deleted member still in {name!r}"
                    )
                )


def _check_containment_uniqueness(objects: List[DBObject], out: List[Violation]) -> None:
    membership: dict = {}
    for obj in objects:
        if obj.deleted:
            continue
        for name in obj.subclass_names():
            for member in obj.subclass(name):
                previous = membership.get(member.surrogate)
                if previous is not None and previous is not obj:
                    out.append(
                        Violation(
                            "containment",
                            member,
                            "object is a member of two complex objects",
                        )
                    )
                membership[member.surrogate] = obj


def _check_relationship(rel: RelationshipObject, out: List[Violation]) -> None:
    for participant in rel.participant_objects():
        if participant.deleted:
            out.append(
                Violation(
                    "relationship", rel, f"references deleted {participant!r}"
                )
            )
        elif rel not in participant._participating:
            out.append(
                Violation(
                    "relationship",
                    rel,
                    f"participant {participant!r} lacks the back-reference",
                )
            )


def _check_links(
    obj: DBObject, out: List[Violation], registered: Dict[int, Set[int]]
) -> None:
    for link in obj.inheritance_links:
        if link.inheritor is not obj:
            out.append(Violation("inheritance", obj, "link inheritor mismatch"))
        transmitter = link.transmitter
        links = registered.get(id(transmitter))
        if links is None:
            links = registered[id(transmitter)] = {
                id(other) for other in transmitter._links_as_transmitter
            }
        if id(link) not in links:
            out.append(
                Violation(
                    "inheritance",
                    obj,
                    f"transmitter {link.transmitter!r} does not register the link",
                )
            )
        if link.transmitter.deleted:
            out.append(
                Violation("inheritance", obj, "bound to a deleted transmitter")
            )
        for member in link.rel_type.inheriting:
            if link.transmitter.object_type.member_kind(member) is None:
                out.append(
                    Violation(
                        "inheritance",
                        obj,
                        f"permeable member {member!r} vanished from the "
                        f"transmitter type",
                    )
                )
        _check_no_cycle(obj, out)
    for link in obj.inheritor_links:
        if link.transmitter is not obj:
            out.append(Violation("inheritance", obj, "link transmitter mismatch"))
        if obj.deleted:
            out.append(
                Violation("inheritance", obj, "deleted transmitter still linked")
            )


def _check_no_cycle(obj: DBObject, out: List[Violation]) -> None:
    seen: Set[Surrogate] = set()
    current = obj
    while True:
        links = current.inheritance_links
        if not links:
            return
        current = links[0].transmitter
        if current.surrogate == obj.surrogate or current.surrogate in seen:
            out.append(Violation("inheritance", obj, "inheritance cycle detected"))
            return
        seen.add(current.surrogate)


def _check_classes(db: Database, tracked: Set[Surrogate], out: List[Violation]) -> None:
    for name, extent in db.classes().items():
        for member in extent:
            if member.surrogate not in tracked:
                out.append(
                    Violation("class", member, f"member of {name!r} is not tracked")
                )
            if member.deleted:
                out.append(
                    Violation("class", member, f"deleted member still in {name!r}")
                )
            if not member.object_type.conforms_to(extent.object_type):
                out.append(
                    Violation(
                        "class",
                        member,
                        f"type {member.object_type.name!r} does not conform to "
                        f"class {name!r}",
                    )
                )
