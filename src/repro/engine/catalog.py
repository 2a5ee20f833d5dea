"""The catalog: registry of domains and types of one database.

The catalog is the schema half of the engine — every named domain, object
type, relationship type and inheritance-relationship type lives here.  The
DDL builder (:mod:`repro.ddl.builder`) populates it from the paper's schema
syntax; programmatic schemas register through the ``define_*`` helpers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..core.domains import (
    ANY,
    BOOLEAN,
    CHAR,
    INTEGER,
    IO,
    POINT,
    REAL,
    STRING,
    Domain,
)
from ..core import resolution
from ..core.inheritance import InheritanceRelationshipType
from ..core.interning import InternPool
from ..core.objtype import ObjectType, TypeBase
from ..core.reltype import RelationshipType
from ..errors import (
    DuplicateTypeError,
    UnknownDomainError,
    UnknownTypeError,
)

__all__ = ["Catalog"]

#: Facade over the process-wide name-interning pool (see repro.core.interning).
_INTERN_POOL = InternPool()

#: Domains every catalog starts with, under the paper's spellings.
_BUILTIN_DOMAINS: Dict[str, Domain] = {
    "integer": INTEGER,
    "real": REAL,
    "string": STRING,
    "boolean": BOOLEAN,
    "char": CHAR,
    "any": ANY,
    "object": ANY,
    "Point": POINT,
    "I/O": IO,
}


class Catalog:
    """Schema registry: domains and types, by name."""

    def __init__(self) -> None:
        self._domains: Dict[str, Domain] = dict(_BUILTIN_DOMAINS)
        self._types: Dict[str, TypeBase] = {}

    # -- domains -----------------------------------------------------------------

    def define_domain(self, name: str, domain: Domain) -> Domain:
        """Register a named domain (``domain I/O = (IN, OUT)``)."""
        if name in self._domains:
            raise DuplicateTypeError(f"domain {name!r} is already defined")
        self._domains[name] = domain
        return domain

    def domain(self, name: str) -> Domain:
        """Look up a domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise UnknownDomainError(f"unknown domain {name!r}") from None

    def has_domain(self, name: str) -> bool:
        return name in self._domains

    def domains(self) -> Dict[str, Domain]:
        """Copy of the domain registry."""
        return dict(self._domains)

    # -- types -------------------------------------------------------------------

    @property
    def schema_epoch(self) -> int:
        """The schema epoch compiled resolution plans validate against.

        Bumped by every type definition and ``inheritor-in:`` declaration
        (see :mod:`repro.core.resolution`); the counter is process-global
        because types can exist outside any catalog.
        """
        return resolution.schema_epoch()

    @property
    def interning(self) -> InternPool:
        """The shared attribute-name interning pool.

        One pool per process (names are canonical across catalogs, like
        the schema epoch); exposed here so tools inspect
        ``catalog.interning.stats()`` next to the schema state.
        """
        return _INTERN_POOL

    def register(self, type_: TypeBase) -> TypeBase:
        """Register any kind of type under its name."""
        if type_.name in self._types:
            raise DuplicateTypeError(f"type {type_.name!r} is already defined")
        self._types[type_.name] = type_
        return type_

    def define_object_type(self, name: str, **kwargs) -> ObjectType:
        """Create and register an :class:`~repro.core.objtype.ObjectType`."""
        return self.register(ObjectType(name, **kwargs))  # type: ignore[return-value]

    def define_inheritance_type(
        self, name: str, transmitter_type, inheriting, **kwargs
    ) -> InheritanceRelationshipType:
        """Create and register an inheritance-relationship type."""
        return self.register(  # type: ignore[return-value]
            InheritanceRelationshipType(name, transmitter_type, inheriting, **kwargs)
        )

    def type(self, name: str) -> TypeBase:
        """Look up any type by name."""
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def object_type(self, name: str) -> ObjectType:
        """Look up an object type (rejects relationship types)."""
        found = self.type(name)
        if isinstance(found, RelationshipType) or not isinstance(found, ObjectType):
            raise UnknownTypeError(f"{name!r} is not an object type")
        return found

    def relationship_type(self, name: str) -> RelationshipType:
        """Look up a relationship type (plain or inheritance)."""
        found = self.type(name)
        if not isinstance(found, RelationshipType):
            raise UnknownTypeError(f"{name!r} is not a relationship type")
        return found

    def inheritance_type(self, name: str) -> InheritanceRelationshipType:
        """Look up an inheritance-relationship type."""
        found = self.type(name)
        if not isinstance(found, InheritanceRelationshipType):
            raise UnknownTypeError(f"{name!r} is not an inheritance relationship type")
        return found

    def has_type(self, name: str) -> bool:
        return name in self._types

    def __contains__(self, name: object) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[TypeBase]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    def object_types(self) -> List[ObjectType]:
        return [
            t
            for t in self._types.values()
            if isinstance(t, ObjectType) and not isinstance(t, RelationshipType)
        ]

    def relationship_types(self) -> List[RelationshipType]:
        return [
            t
            for t in self._types.values()
            if isinstance(t, RelationshipType)
            and not isinstance(t, InheritanceRelationshipType)
        ]

    def inheritance_types(self) -> List[InheritanceRelationshipType]:
        return [
            t
            for t in self._types.values()
            if isinstance(t, InheritanceRelationshipType)
        ]
