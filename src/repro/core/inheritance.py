"""Inheritance-relationship types — the paper's central mechanism (§4.1).

An inheritance relationship relates one *transmitter* object to *inheritor*
objects.  The inheritor inherits the attributes and subclasses named in the
``inheriting:`` clause — their existence at the type level (classical
generalization) **and their values at the object level** when the inheritor
is bound to a concrete transmitter object.  Inherited data is read-only in
the inheritor; transmitter updates are visible in every inheritor
immediately.

The ``inheriting:`` clause is the relationship's *permeability* (§4.2): only
the listed members flow through, which is how interfaces expose a tailored
image of a component (``SomeOf_Gate`` in the paper).

Like every relationship, an inheritance relationship is represented by a
relationship object and may carry attributes, subclasses and constraints of
its own — §4.1 singles out consistency-control data ("to inform the user
about changes of the transmitter object the attributes of the relationship
can be used"), which :mod:`repro.consistency` builds on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import SchemaError
from .objtype import ObjectType, TypeBase
from .reltype import ParticipantSpec, RelationshipType

__all__ = [
    "InheritanceRelationshipType",
    "TRANSMITTER_ROLE",
    "INHERITOR_ROLE",
    "cone_depths",
    "iter_propagation",
    "iter_propagation_depths",
    "propagation_cone",
    "propagation_fanout",
]

TRANSMITTER_ROLE = "transmitter"
INHERITOR_ROLE = "inheritor"


class InheritanceRelationshipType(RelationshipType):
    """Type of an inheritance relationship (``inher-rel-type``).

    Parameters
    ----------
    name:
        Type name, e.g. ``AllOf_GateInterface``.
    transmitter_type:
        The object type whose instances transmit data (required — the
        ``transmitter: object-of-type T`` clause).
    inheriting:
        Names of attributes/subclasses of the transmitter type that are
        permeable.  Every name must be an *effective* member of the
        transmitter type (the transmitter may itself inherit it — the
        paper's GateInterface passes on the Pins it inherits from
        GateInterface_I).
    inheritor_type:
        Optional object type restriction for inheritors; ``None`` is the
        paper's plain ``inheritor: object``.
    attributes / subclasses / constraints:
        Own members of the relationship objects (adaptation bookkeeping,
        application data …).
    """

    def __init__(
        self,
        name: str,
        transmitter_type: ObjectType,
        inheriting: Sequence[str],
        inheritor_type: Optional[ObjectType] = None,
        attributes=None,
        subclasses=None,
        subrels=None,
        constraints=None,
        doc: str = "",
    ):
        if not isinstance(transmitter_type, TypeBase):
            raise SchemaError(
                f"inher-rel-type {name!r}: transmitter must be an object type"
            )
        super().__init__(
            name,
            relates={
                TRANSMITTER_ROLE: ParticipantSpec(TRANSMITTER_ROLE, transmitter_type),
                # The inheritor role stays untyped at the participant level:
                # the `inheritor:` restriction is enforced by bind() with the
                # inheritor-in-declaration escape hatch (§5), not by plain
                # participant conformance.
                INHERITOR_ROLE: ParticipantSpec(INHERITOR_ROLE, None),
            },
            attributes=attributes,
            subclasses=subclasses,
            subrels=subrels,
            constraints=constraints,
            doc=doc,
        )
        self.transmitter_type = transmitter_type
        self.inheritor_type = inheritor_type
        self.inheriting: Tuple[str, ...] = self._validate_inheriting(inheriting)
        #: Object types that declared ``inheritor-in: <this>`` (bookkeeping
        #: for catalogs and the documentation generator).
        self.known_inheritor_types: List[TypeBase] = []
        transmitter_type._transmitting_rel_types.append(self)
        if inheritor_type is not None:
            inheritor_type.declare_inheritor_in(self)

    def _validate_inheriting(self, inheriting: Sequence[str]) -> Tuple[str, ...]:
        if not inheriting:
            raise SchemaError(
                f"inher-rel-type {self.name!r}: the inheriting clause is empty"
            )
        seen: Set[str] = set()
        validated = []
        for member in inheriting:
            if member in seen:
                raise SchemaError(
                    f"inher-rel-type {self.name!r}: duplicate inheriting "
                    f"member {member!r}"
                )
            seen.add(member)
            if self.transmitter_type.member_kind(member) is None:
                raise SchemaError(
                    f"inher-rel-type {self.name!r}: transmitter type "
                    f"{self.transmitter_type.name!r} has no member {member!r}"
                )
            validated.append(member)
        return tuple(validated)

    def _register_inheritor_type(self, inheritor_type: TypeBase) -> None:
        if inheritor_type not in self.known_inheritor_types:
            self.known_inheritor_types.append(inheritor_type)

    def set_inheritor_type(self, inheritor_type: TypeBase) -> None:
        """Resolve a forward-referenced ``inheritor: object-of-type T``.

        The paper's §5 listing declares ``AllOf_GirderIf`` with
        ``inheritor: object-of-type Girder`` *before* defining Girder; the
        DDL builder resolves the restriction in a second pass through this
        method.  Also registers the ``inheritor-in`` declaration on the
        resolved type.
        """
        if self.inheritor_type is not None and self.inheritor_type is not inheritor_type:
            raise SchemaError(
                f"inher-rel-type {self.name!r} already restricts inheritors "
                f"to {self.inheritor_type.name!r}"
            )
        self.inheritor_type = inheritor_type
        inheritor_type.declare_inheritor_in(self)

    # -- permeability ----------------------------------------------------------

    def is_permeable(self, member: str) -> bool:
        """True when ``member`` flows through this relationship (§4.2)."""
        return member in self.inheriting

    def permeable_attributes(self) -> Dict[str, Any]:
        """Attribute specs of the transmitter type that flow through."""
        return {
            name: spec
            for name, spec in self.transmitter_type.effective_attributes().items()
            if name in self.inheriting
        }

    def permeable_subclasses(self) -> Dict[str, Any]:
        """Subclass specs of the transmitter type that flow through."""
        return {
            name: spec
            for name, spec in self.transmitter_type.effective_subclasses().items()
            if name in self.inheriting
        }

    def accepts_inheritor(self, candidate_type: Optional[TypeBase]) -> bool:
        """Type check for a would-be inheritor object."""
        if self.inheritor_type is None:
            return True
        return candidate_type is not None and candidate_type.conforms_to(
            self.inheritor_type
        )

    def __repr__(self) -> str:
        restriction = (
            self.inheritor_type.name if self.inheritor_type is not None else "object"
        )
        return (
            f"<InheritanceRelationshipType {self.name} "
            f"{self.transmitter_type.name} -> {restriction} "
            f"inheriting {list(self.inheriting)}>"
        )


# -- update-propagation traversal ------------------------------------------------

#: The cone of a transmitter nobody inherits from (shared, never mutated).
_NO_LINKS: Tuple[Any, ...] = ()


def propagation_cone(transmitter: Any, member: Optional[str] = None) -> Sequence[Any]:
    """The links an update of ``member`` on ``transmitter`` travels, in
    walk order (§4.2's update fan-out); the inheritors it becomes visible
    in are their ``inheritor`` ends.

    The walk is transitive — an inheritor that transmits the member
    onwards (interface hierarchies) contributes its own inheritors — and
    reaches each inheritor once, through the first link found, so
    diamonds do not duplicate.  Only links whose ``inheriting`` clause
    makes ``member`` permeable are followed; ``member=None`` follows every
    link (the downstream subtree a binding change re-routes).  This is
    the one walk of the cone: the derived-state maintainer refreshes
    along it, the event tap measures fan-out from it, and the audit log
    keeps it as the mutation's propagation record.
    """
    if not transmitter._links_as_transmitter:
        return _NO_LINKS
    cone: List[Any] = []
    append = cone.append
    seen: Set[int] = set()
    stack = [transmitter]
    while stack:
        for link in stack.pop()._links_as_transmitter:
            if member is not None and member not in link.rel_type.inheriting:
                continue
            inheritor = link.inheritor
            key = id(inheritor)
            if key in seen:
                continue
            seen.add(key)
            append(link)
            stack.append(inheritor)
    return cone


def cone_depths(
    transmitter: Any, cone: Sequence[Any]
) -> Iterator[Tuple[Any, Any, int]]:
    """``(link, inheritor, depth)`` for each link of ``cone`` (a
    :func:`propagation_cone` of ``transmitter``): depth counts inheritance
    hops below the transmitter, direct inheritors being depth 1.

    The walk reaches a link's transmitter end before the link itself, so
    depths are derived in one pass at read time instead of being carried
    through the walk.
    """
    depth_of = {id(transmitter): 0}
    for link in cone:
        inheritor = link.inheritor
        depth = depth_of.get(id(link.transmitter), 0) + 1
        depth_of[id(inheritor)] = depth
        yield link, inheritor, depth


def iter_propagation(transmitter: Any, member: str) -> Iterator[Tuple[Any, Any]]:
    """Yield ``(link, inheritor)`` for every object an update of ``member``
    on ``transmitter`` becomes visible in, in :func:`propagation_cone`
    order."""
    for link in propagation_cone(transmitter, member):
        yield link, link.inheritor


def iter_propagation_depths(
    transmitter: Any, member: str
) -> Iterator[Tuple[Any, Any, int]]:
    """Like :func:`iter_propagation`, additionally yielding each inheritor's
    **depth** (see :func:`cone_depths`); in a diamond, an inheritor is
    reported at the depth of whichever path the walk reaches it through
    first."""
    return cone_depths(transmitter, propagation_cone(transmitter, member))


def propagation_fanout(transmitter: Any, member: str) -> int:
    """How many inheritors would see an update of ``member`` (transitively)."""
    return len(propagation_cone(transmitter, member))
