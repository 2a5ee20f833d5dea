"""The analyzer's schema IR.

Rules run over a :class:`SchemaModel` — a plain-data view of the type and
relationship graph that can be lowered from **either** input:

* :func:`model_from_ast` — a parsed :class:`~repro.ddl.ast.Schema`.  This
  is where most defects are representable at all: the builder rejects
  cycles, permeability holes, shadows and dangling references at build
  time, so linting the AST is the only way to report them with source
  locations *before* the failure.
* :func:`model_from_catalog` — a compiled
  :class:`~repro.engine.catalog.Catalog`, read through the compiled
  :mod:`~repro.core.resolution` plans (``plan_for``), for linting live
  databases and saved images.

Both lowerings produce the same shapes, so every rule has exactly one code
path.  The model is deliberately tolerant: unresolved references, cycles
and duplicates are *represented*, not rejected — reporting them is the
rules' job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core import resolution
from ..core.constraints import ExprConstraint
from ..core.inheritance import InheritanceRelationshipType
from ..core.reltype import RelationshipType
from ..ddl import ast as ddl_ast
from ..engine.catalog import Catalog

__all__ = [
    "Ref",
    "MemberDecl",
    "ParticipantInfo",
    "TypeInfo",
    "SchemaModel",
    "model_from_ast",
    "model_from_catalog",
]

OBJECT = "object"
RELATIONSHIP = "relationship"
INHERITANCE = "inheritance"

#: Domain names every catalog starts with (mirrors engine/catalog.py).
BUILTIN_DOMAINS: FrozenSet[str] = frozenset(
    ["integer", "real", "string", "boolean", "char", "any", "object", "Point", "I/O"]
)

#: Labels of the builtin enum domains — visible to constraints even when
#: the schema text never declares the domain (the normalised paper DDL
#: references ``I/O`` without redeclaring it).
BUILTIN_ENUM_LABELS: FrozenSet[str] = frozenset(["IN", "OUT"])


@dataclass(frozen=True)
class Ref:
    """A by-name reference to another declaration, as written."""

    name: str
    line: Optional[int] = None
    context: str = ""


@dataclass
class MemberDecl:
    """One declared member of a type."""

    name: str
    kind: str  # 'attribute' | 'subclass' | 'subrel'
    line: Optional[int] = None
    #: Printable domain of an attribute (for diamond-conflict comparison).
    domain: str = ""
    #: Referenced element/relationship type name, as written (subclass/subrel).
    target: Optional[str] = None
    where_source: str = ""


@dataclass
class ParticipantInfo:
    """One role group of a relationship type's relates clause."""

    roles: Tuple[str, ...]
    type_name: Optional[str]
    many: bool = False
    line: Optional[int] = None


@dataclass
class TypeInfo:
    """One type declaration in the model."""

    name: str
    kind: str  # OBJECT | RELATIONSHIP | INHERITANCE
    index: int
    line: Optional[int] = None
    members: Dict[str, MemberDecl] = field(default_factory=dict)
    #: Members whose name re-declares an earlier one (first wins in dicts).
    duplicate_members: List[MemberDecl] = field(default_factory=list)
    inheritor_in: List[Ref] = field(default_factory=list)
    constraint_sources: List[str] = field(default_factory=list)
    constraints_line: Optional[int] = None
    end_name: str = ""
    participants: List[ParticipantInfo] = field(default_factory=list)
    transmitter: Optional[Ref] = None
    #: ``inheritor: object-of-type X`` restriction; None is plain ``object``.
    inheritor_restriction: Optional[Ref] = None
    inheriting: List[str] = field(default_factory=list)
    anonymous: bool = False

    def member_names(self) -> Set[str]:
        return set(self.members)


class SchemaModel:
    """The rule engine's input: types, domains, enum labels, references."""

    def __init__(self, source_path: Optional[str] = None) -> None:
        self.source_path = source_path
        self.types: Dict[str, TypeInfo] = {}
        #: Later declarations re-using an existing type name (REP105).
        self.redeclared_types: List[TypeInfo] = []
        self.domains: Set[str] = set(BUILTIN_DOMAINS)
        #: Domain declarations re-declared with a *different* definition.
        self.conflicting_domains: List[Tuple[str, Optional[int]]] = []
        self.enum_labels: Set[str] = set(BUILTIN_ENUM_LABELS)
        #: Type name → named-domain references its attributes make (AST only).
        self.domain_refs: Dict[str, List[Ref]] = {}

    # -- construction -----------------------------------------------------------

    def add_type(self, info: TypeInfo) -> None:
        if info.name in self.types:
            self.redeclared_types.append(info)
        else:
            self.types[info.name] = info

    # -- lookups ----------------------------------------------------------------

    def resolve(self, name: str) -> Optional[TypeInfo]:
        """Exact lookup, then the builder's case-insensitive fallback."""
        found = self.types.get(name)
        if found is not None:
            return found
        lowered = name.lower()
        for candidate in self.types.values():
            if candidate.name.lower() == lowered:
                return candidate
        return None

    def has_domain(self, name: str) -> bool:
        if name in self.domains:
            return True
        lowered = name.lower()
        return any(known.lower() == lowered for known in self.domains)

    # -- derived views ----------------------------------------------------------

    def transmitter_of(self, rel: TypeInfo) -> Optional[TypeInfo]:
        if rel.transmitter is None:
            return None
        return self.resolve(rel.transmitter.name)

    def inheritance_rels_of(self, info: TypeInfo) -> List[TypeInfo]:
        """The resolved inheritance relationships of ``info.inheritor_in``."""
        rels = []
        for ref in info.inheritor_in:
            rel = self.resolve(ref.name)
            if rel is not None and rel.kind == INHERITANCE:
                rels.append(rel)
        return rels

    def inheritance_edges(self) -> Iterator[Tuple[str, str, str]]:
        """(inheritor type, transmitter type, rel name) type-level edges.

        Covers both ``inheritor-in`` declarations and ``inheritor:
        object-of-type X`` restrictions (the builder registers the latter as
        an implicit inheritor-in on X).
        """
        seen: Set[Tuple[str, str, str]] = set()
        for info in self.types.values():
            for rel in self.inheritance_rels_of(info):
                transmitter = self.transmitter_of(rel)
                if transmitter is None:
                    continue
                edge = (info.name, transmitter.name, rel.name)
                if edge not in seen:
                    seen.add(edge)
                    yield edge
        for rel in self.types.values():
            if rel.kind != INHERITANCE or rel.inheritor_restriction is None:
                continue
            inheritor = self.resolve(rel.inheritor_restriction.name)
            transmitter = self.transmitter_of(rel)
            if inheritor is None or transmitter is None:
                continue
            edge = (inheritor.name, transmitter.name, rel.name)
            if edge not in seen:
                seen.add(edge)
                yield edge

    def composition_edges(self) -> Iterator[Tuple[str, str, str]]:
        """(owner type, element type, subclass name) containment edges."""
        for info in self.types.values():
            for member in info.members.values():
                if member.kind != "subclass" or member.target is None:
                    continue
                element = self.resolve(member.target)
                if element is not None:
                    yield info.name, element.name, member.name

    def effective_members(
        self, info: TypeInfo, _stack: Optional[FrozenSet[str]] = None
    ) -> Dict[str, MemberDecl]:
        """Own plus type-level inherited members, own overriding.

        Mirrors ``TypeBase.effective_attributes`` and friends, but tolerates
        the defects the engine rejects (cycles are cut by the visited stack,
        unresolved transmitters contribute nothing).
        """
        stack = _stack or frozenset()
        if info.name in stack:
            return {}
        merged: Dict[str, MemberDecl] = {}
        for rel in self.inheritance_rels_of(info):
            transmitter = self.transmitter_of(rel)
            if transmitter is None:
                continue
            upstream = self.effective_members(
                transmitter, stack | {info.name}
            )
            for name in rel.inheriting:
                found = upstream.get(name)
                if found is not None and name not in merged:
                    merged[name] = found
        merged.update(info.members)
        return merged

    def conforms(self, sub: TypeInfo, sup: TypeInfo) -> bool:
        """Substitutability on the model's transmitter-ancestry graph."""
        if sub is sup:
            return True
        visited: Set[str] = set()
        stack = [sub]
        while stack:
            current = stack.pop()
            if current.name == sup.name:
                return True
            if current.name in visited:
                continue
            visited.add(current.name)
            for rel in self.inheritance_rels_of(current):
                transmitter = self.transmitter_of(rel)
                if transmitter is not None:
                    stack.append(transmitter)
        return False


# ---------------------------------------------------------------------------
# lowering: DDL AST → model
# ---------------------------------------------------------------------------


def _domain_text(ast: ddl_ast.DomainAst) -> str:
    """A canonical printable form of a domain expression, for comparisons."""
    if isinstance(ast, ddl_ast.DomainRef):
        return ast.name
    if isinstance(ast, ddl_ast.EnumLiteral):
        return f"({', '.join(ast.labels)})"
    if isinstance(ast, ddl_ast.RecordLiteral):
        groups = "; ".join(
            f"{', '.join(names)}: {_domain_text(domain)}" for names, domain in ast.fields
        )
        return f"record({groups})"
    return f"{ast.constructor} {_domain_text(ast.element)}"


def _collect_domain_refs(
    ast: ddl_ast.DomainAst, line: Optional[int]
) -> Iterator[Ref]:
    """Every named-domain reference inside a domain expression."""
    if isinstance(ast, ddl_ast.DomainRef):
        yield Ref(ast.name, line, "domain reference")
    elif isinstance(ast, ddl_ast.RecordLiteral):
        for _, domain in ast.fields:
            yield from _collect_domain_refs(domain, line)
    elif isinstance(ast, ddl_ast.ConstructorAst):
        yield from _collect_domain_refs(ast.element, line)


def _collect_enum_labels(ast: ddl_ast.DomainAst, into: Set[str]) -> None:
    if isinstance(ast, ddl_ast.EnumLiteral):
        into.update(ast.labels)
    elif isinstance(ast, ddl_ast.RecordLiteral):
        for _, domain in ast.fields:
            _collect_enum_labels(domain, into)
    elif isinstance(ast, ddl_ast.ConstructorAst):
        _collect_enum_labels(ast.element, into)


class _AstLowering:
    def __init__(self, schema: ddl_ast.Schema, source_path: Optional[str]) -> None:
        self.schema = schema
        self.model = SchemaModel(source_path)
        #: Domain declarations seen so far: name → canonical text.
        self._domain_decls: Dict[str, str] = {}

    def lower(self) -> SchemaModel:
        for index, decl in enumerate(self.schema.declarations):
            if isinstance(decl, ddl_ast.DomainDecl):
                self._lower_domain(decl)
            elif isinstance(decl, ddl_ast.ObjTypeDecl):
                self._lower_obj_type(decl, index)
            elif isinstance(decl, ddl_ast.RelTypeDecl):
                self._lower_rel_type(decl, index)
            elif isinstance(decl, ddl_ast.InherRelTypeDecl):
                self._lower_inher_type(decl, index)
        return self.model

    # -- pieces -----------------------------------------------------------------

    def _lower_domain(self, decl: ddl_ast.DomainDecl) -> None:
        text = _domain_text(decl.domain)
        previous = self._domain_decls.get(decl.name)
        if previous is not None and previous != text:
            self.model.conflicting_domains.append((decl.name, decl.line))
        elif decl.name not in BUILTIN_DOMAINS:
            self._domain_decls[decl.name] = text
        self.model.domains.add(decl.name)
        _collect_enum_labels(decl.domain, self.model.enum_labels)

    def _note_domain_refs(self, owner: str, ast: ddl_ast.DomainAst,
                          line: Optional[int]) -> None:
        self.model.domain_refs.setdefault(owner, []).extend(
            _collect_domain_refs(ast, line)
        )
        _collect_enum_labels(ast, self.model.enum_labels)

    def _add_member(self, info: TypeInfo, member: MemberDecl) -> None:
        if member.name in info.members:
            info.duplicate_members.append(member)
        else:
            info.members[member.name] = member

    def _lower_members(
        self,
        info: TypeInfo,
        attributes: List[ddl_ast.AttributeDecl],
        subclasses: List[ddl_ast.SubclassDecl],
        subrels: List[ddl_ast.SubrelDecl],
        index: int,
    ) -> None:
        for group in attributes:
            self._note_domain_refs(info.name, group.domain, group.line)
            for name in group.names:
                self._add_member(
                    info,
                    MemberDecl(name, "attribute", group.line,
                               domain=_domain_text(group.domain)),
                )
        for sub in subclasses:
            target = sub.type_name
            if target is None and sub.body is not None:
                target = f"{info.name}.{sub.name}"
                self._lower_anonymous(info.name, sub, index)
            self._add_member(
                info, MemberDecl(sub.name, "subclass", sub.line, target=target)
            )
        for subrel in subrels:
            self._add_member(
                info,
                MemberDecl(subrel.name, "subrel", subrel.line,
                           target=subrel.rel_type_name,
                           where_source=subrel.where_source),
            )

    def _lower_anonymous(self, owner: str, sub: ddl_ast.SubclassDecl,
                         index: int) -> None:
        body = sub.body
        assert body is not None
        info = TypeInfo(
            name=f"{owner}.{sub.name}",
            kind=OBJECT,
            index=index,
            line=sub.line,
            anonymous=True,
        )
        info.inheritor_in = [
            Ref(name, sub.line, f"inheritor-in of {info.name}")
            for name in body.inheritor_in
        ]
        if body.constraints:
            info.constraint_sources.append(body.constraints)
            info.constraints_line = sub.line
        self._lower_members(info, body.attributes, body.subclasses, [], index)
        self.model.add_type(info)

    def _lower_obj_type(self, decl: ddl_ast.ObjTypeDecl, index: int) -> None:
        info = TypeInfo(decl.name, OBJECT, index, decl.line,
                        end_name=decl.end_name)
        info.inheritor_in = [
            Ref(name, decl.line, f"inheritor-in of {decl.name}")
            for name in decl.inheritor_in
        ]
        if decl.constraints:
            info.constraint_sources.append(decl.constraints)
            info.constraints_line = decl.line
        self._lower_members(info, decl.attributes, decl.subclasses,
                            decl.subrels, index)
        self.model.add_type(info)

    def _lower_rel_type(self, decl: ddl_ast.RelTypeDecl, index: int) -> None:
        info = TypeInfo(decl.name, RELATIONSHIP, index, decl.line,
                        end_name=decl.end_name)
        info.participants = [
            ParticipantInfo(group.names, group.type_name, group.many, group.line)
            for group in decl.relates
        ]
        if decl.constraints:
            info.constraint_sources.append(decl.constraints)
            info.constraints_line = decl.line
        self._lower_members(info, decl.attributes, decl.subclasses,
                            decl.subrels, index)
        self.model.add_type(info)

    def _lower_inher_type(self, decl: ddl_ast.InherRelTypeDecl, index: int) -> None:
        info = TypeInfo(decl.name, INHERITANCE, index, decl.line,
                        end_name=decl.end_name)
        if decl.transmitter_type:
            info.transmitter = Ref(decl.transmitter_type, decl.line,
                                   f"transmitter of {decl.name}")
        if decl.inheritor_type is not None:
            info.inheritor_restriction = Ref(
                decl.inheritor_type, decl.line,
                f"inheritor restriction of {decl.name}")
        info.inheriting = list(decl.inheriting)
        if decl.constraints:
            info.constraint_sources.append(decl.constraints)
            info.constraints_line = decl.line
        self._lower_members(info, decl.attributes, decl.subclasses, [], index)
        self.model.add_type(info)


def model_from_ast(
    schema: ddl_ast.Schema, source_path: Optional[str] = None
) -> SchemaModel:
    """Lower a parsed DDL schema into the analyzer's model."""
    return _AstLowering(schema, source_path).lower()


# ---------------------------------------------------------------------------
# lowering: compiled catalog → model
# ---------------------------------------------------------------------------


def _kind_of(type_) -> str:
    if isinstance(type_, InheritanceRelationshipType):
        return INHERITANCE
    if isinstance(type_, RelationshipType):
        return RELATIONSHIP
    return OBJECT


def model_from_catalog(catalog: Catalog) -> SchemaModel:
    """Lower a compiled catalog, reading member tables from the compiled
    resolution plans (``plan_for``) so the lint sees exactly what the
    engine dispatches on."""
    model = SchemaModel()
    model.domains.update(catalog.domains())
    for domain in catalog.domains().values():
        labels = getattr(domain, "labels", None)
        if labels:
            model.enum_labels.update(labels)
    for index, type_ in enumerate(catalog):
        kind = _kind_of(type_)
        info = TypeInfo(type_.name, kind, index,
                        anonymous="." in type_.name)
        plan = resolution.plan_for(type_)
        for name, spec in type_.attributes.items():
            entry = plan.entries.get(name)
            domain = getattr(
                (entry.spec if entry is not None and entry.spec is not None
                 else spec), "domain", None)
            info.members[name] = MemberDecl(
                name, "attribute",
                domain=getattr(domain, "name", "") or "",
            )
        for name, sub in type_.subclass_specs.items():
            info.members[name] = MemberDecl(
                name, "subclass", target=sub.element_type.name)
        for name, subrel in type_.subrel_specs.items():
            info.members[name] = MemberDecl(
                name, "subrel", target=subrel.rel_type.name,
                where_source=subrel.where_source)
        info.inheritor_in = [
            Ref(rel.name, None, f"inheritor-in of {type_.name}")
            for rel in type_.inheritor_in
        ]
        info.constraint_sources = [
            constraint.source
            for constraint in type_.constraints
            if isinstance(constraint, ExprConstraint)
        ]
        if isinstance(type_, InheritanceRelationshipType):
            info.transmitter = Ref(type_.transmitter_type.name, None,
                                   f"transmitter of {type_.name}")
            if type_.inheritor_type is not None:
                info.inheritor_restriction = Ref(
                    type_.inheritor_type.name, None,
                    f"inheritor restriction of {type_.name}")
            info.inheriting = list(type_.inheriting)
        elif isinstance(type_, RelationshipType):
            info.participants = [
                ParticipantInfo(
                    (spec.role,),
                    spec.object_type.name if spec.object_type is not None else None,
                    spec.many,
                )
                for spec in type_.participants.values()
            ]
        model.add_type(info)
    return model
