"""Parser for the paper's schema-definition language.

The grammar follows the listings of §3–§5.  Known quirks of the published
text are accepted and recorded as parser *notes* rather than rejected:

* ``obj-type SimpleGate:`` uses ``:`` where every other listing uses ``=``;
* ``connections:`` appears once for ``types-of-subrels:``;
* ``inher-rel-typ`` (missing ``e``) introduces ``AllOf_PlateIf``;
* ``inheritor:`` is used for ``inheritor-in:`` inside ``obj-type Girder``;
* several ``end`` names do not match their opening declaration
  (``end AllOf_BoltType`` closes ``AllOf_NutType``).

Constraint bodies and ``where`` clauses are captured as raw source text and
parsed by :mod:`repro.expr` at build time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import DDLSyntaxError
from .ast import (
    AnonymousTypeBody,
    AttributeDecl,
    ConstructorAst,
    Declaration,
    DomainAst,
    DomainDecl,
    DomainRef,
    EnumLiteral,
    InherRelTypeDecl,
    ObjTypeDecl,
    ParticipantDecl,
    RecordLiteral,
    RelTypeDecl,
    Schema,
    SubclassDecl,
    SubrelDecl,
)
from .lexer import DdlToken, strip_comments, tokenize_ddl

__all__ = ["parse_schema_source"]

#: Keywords that terminate a raw-captured block (constraints, where).
_SECTION_KEYWORDS = frozenset(
    [
        "end",
        "end-domain",
        "attributes",
        "types-of-subclasses",
        "types-of-subrels",
        "connections",
        "constraints",
        "relates",
        "transmitter",
        "inheritor",
        "inheriting",
        "inheritor-in",
        "domain",
        "obj-type",
        "rel-type",
        "inher-rel-type",
    ]
)

_CONSTRUCTORS = ("set-of", "list-of", "matrix-of")


class _DdlParser:
    def __init__(self, source: str) -> None:
        self.source = strip_comments(source)
        self.tokens = tokenize_ddl(self.source)
        self.pos = 0
        self.notes: List[str] = []

    # -- plumbing ---------------------------------------------------------------

    @property
    def current(self) -> DdlToken:
        return self.tokens[self.pos]

    def advance(self) -> DdlToken:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def error(self, message: str) -> DDLSyntaxError:
        token = self.current
        shown = token.text or "<end of input>"
        return DDLSyntaxError(f"{message}, found {shown!r}", line=token.line)

    def expect_op(self, text: str) -> DdlToken:
        if not self.current.is_op(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> DdlToken:
        if not self.current.is_keyword(word):
            raise self.error(f"expected keyword {word!r}")
        return self.advance()

    def expect_ident(self) -> DdlToken:
        if self.current.kind != "IDENT":
            raise self.error("expected an identifier")
        return self.advance()

    def skip_semicolons(self) -> None:
        while self.current.is_op(";"):
            self.advance()

    def note(self, message: str) -> None:
        self.notes.append(f"line {self.current.line}: {message}")

    # -- top level -----------------------------------------------------------------

    def parse(self) -> Schema:
        declarations: List[Declaration] = []
        while True:
            self.skip_semicolons()
            token = self.current
            if token.kind == "EOF":
                break
            if token.is_keyword("domain"):
                declarations.append(self.domain_decl())
            elif token.is_keyword("obj-type"):
                declarations.append(self.obj_type_decl())
            elif token.is_keyword("rel-type"):
                declarations.append(self.rel_type_decl())
            elif token.is_keyword("inher-rel-type"):
                declarations.append(self.inher_rel_type_decl())
            elif token.kind == "IDENT" and token.text.lower() == "inher-rel-typ":
                # The paper's AllOf_PlateIf listing drops the final 'e'.
                self.note("accepting 'inher-rel-typ' as 'inher-rel-type'")
                self.advance()
                declarations.append(self.inher_rel_type_decl(keyword_consumed=True))
            else:
                raise self.error("expected a declaration")
        return Schema(declarations, self.notes)

    # -- domains -------------------------------------------------------------------

    def domain_decl(self) -> DomainDecl:
        line = self.current.line
        self.expect_keyword("domain")
        name = self.expect_ident().text
        self.expect_op("=")
        domain = self.domain_expr(allow_end_domain=True)
        self.skip_semicolons()
        return DomainDecl(name, domain, line=line)

    def domain_expr(self, allow_end_domain: bool = False) -> DomainAst:
        token = self.current
        if token.is_keyword(*_CONSTRUCTORS):
            constructor = self.advance().text
            return ConstructorAst(constructor, self.domain_expr())
        if token.is_keyword("record"):
            self.advance()
            self.expect_op(":")
            fields = self.record_fields(stop_at_end_domain=True)
            self.expect_keyword("end-domain")
            if self.current.kind == "IDENT":
                self.advance()  # the repeated domain name
            return RecordLiteral(tuple(fields))
        if token.is_op("("):
            return self.paren_domain()
        if token.kind == "IDENT":
            return DomainRef(self.advance().text)
        raise self.error("expected a domain")

    def paren_domain(self) -> DomainAst:
        """``(IN, OUT)`` enum or ``(X, Y: integer)`` / pin-record literal."""
        self.expect_op("(")
        names = [self.expect_ident().text]
        while self.current.is_op(","):
            self.advance()
            names.append(self.expect_ident().text)
        if self.current.is_op(")"):
            self.advance()
            return EnumLiteral(tuple(names))
        # Record form: the collected names are the first field group.
        self.expect_op(":")
        first_domain = self.domain_expr()
        fields: List[Tuple[Tuple[str, ...], DomainAst]] = [
            (tuple(names), first_domain)
        ]
        while self.current.is_op(";", ","):
            self.advance()
            if self.current.is_op(")"):
                break
            group = [self.expect_ident().text]
            while self.current.is_op(","):
                self.advance()
                group.append(self.expect_ident().text)
            self.expect_op(":")
            fields.append((tuple(group), self.domain_expr()))
        self.expect_op(")")
        return RecordLiteral(tuple(fields))

    def record_fields(self, stop_at_end_domain: bool) -> List[Tuple[Tuple[str, ...], DomainAst]]:
        fields: List[Tuple[Tuple[str, ...], DomainAst]] = []
        while True:
            self.skip_semicolons()
            if stop_at_end_domain and self.current.is_keyword("end-domain"):
                break
            if self.current.kind != "IDENT":
                break
            names = [self.expect_ident().text]
            while self.current.is_op(","):
                self.advance()
                names.append(self.expect_ident().text)
            self.expect_op(":")
            fields.append((tuple(names), self.domain_expr()))
        return fields

    # -- sections shared by the three type declarations --------------------------------

    def attribute_section(self) -> List[AttributeDecl]:
        self.expect_op(":")
        groups: List[AttributeDecl] = []
        while True:
            self.skip_semicolons()
            if self.current.kind != "IDENT":
                break
            # Attribute group: names ':' domain — require the colon to avoid
            # swallowing a following declaration's name.
            line = self.current.line
            names = [self.expect_ident().text]
            while self.current.is_op(","):
                self.advance()
                names.append(self.expect_ident().text)
            self.expect_op(":")
            groups.append(AttributeDecl(tuple(names), self.domain_expr(), line=line))
        return groups

    def subclass_section(self, owner: str) -> List[SubclassDecl]:
        self.expect_op(":")
        entries: List[SubclassDecl] = []
        while True:
            self.skip_semicolons()
            if self.current.kind != "IDENT":
                break
            line = self.current.line
            name = self.expect_ident().text
            self.expect_op(":")
            if self.current.kind == "IDENT":
                entries.append(SubclassDecl(name, type_name=self.advance().text, line=line))
                continue
            if self.current.is_keyword("inheritor-in", "inheritor", "attributes"):
                entries.append(SubclassDecl(name, body=self.anonymous_body(), line=line))
                continue
            raise self.error(f"expected a type name or inline body for subclass {name!r}")
        return entries

    def anonymous_body(self) -> AnonymousTypeBody:
        body = AnonymousTypeBody()
        while True:
            self.skip_semicolons()
            token = self.current
            if token.is_keyword("inheritor-in") or token.is_keyword("inheritor"):
                if token.is_keyword("inheritor"):
                    self.note("accepting 'inheritor:' as 'inheritor-in:' (paper typo)")
                self.advance()
                self.expect_op(":")
                body.inheritor_in.append(self.expect_ident().text)
                while self.current.is_op(","):
                    self.advance()
                    body.inheritor_in.append(self.expect_ident().text)
            elif token.is_keyword("attributes"):
                self.advance()
                body.attributes.extend(self.attribute_section())
            else:
                # A 'constraints:' section after subclass entries belongs to
                # the enclosing type (ScrewingType's constraints follow the
                # Bolt/Nut entries), so it is not consumed here.
                break
        return body

    def subrel_section(self) -> List[SubrelDecl]:
        self.expect_op(":")
        entries: List[SubrelDecl] = []
        while True:
            self.skip_semicolons()
            if self.current.kind != "IDENT":
                break
            line = self.current.line
            name = self.expect_ident().text
            self.expect_op(":")
            rel_type_name = self.expect_ident().text
            where_source = ""
            if self.current.is_keyword("where"):
                self.advance()
                where_source = self.raw_block()
            entries.append(SubrelDecl(name, rel_type_name, where_source, line=line))
        return entries

    def raw_block(self, multi: bool = False) -> str:
        """Capture raw expression text up to the next section keyword.

        With ``multi=False`` (a ``where`` clause) the first semicolon at
        parenthesis depth 0 terminates the block — **unless** a top-level
        ``for`` was seen, because the §5 quantified constraints span several
        ``;``-separated lines (the expression parser's greedy ``for``
        handles them).  With ``multi=True`` (a ``constraints:`` section) the
        block is a ``;``-separated list and only a section keyword or
        ``end`` terminates it.
        """
        if self.current.is_op(":"):
            self.advance()
        start: Optional[int] = None
        end = None
        depth = 0
        saw_for = False
        while True:
            token = self.current
            if token.kind == "EOF":
                break
            if depth == 0 and token.kind == "KEYWORD" and token.text in _SECTION_KEYWORDS:
                break
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth -= 1
            elif token.kind == "IDENT" and token.text == "for" and depth == 0:
                saw_for = True
            elif token.is_op(";") and depth == 0 and not multi and not saw_for:
                break  # caller's skip_semicolons consumes the separator
            if start is None:
                start = token.position
            if not token.is_op(";"):
                end = token.position + len(token.text)
            self.advance()
        if start is None or end is None:
            return ""
        return self.source[start:end].strip()

    def end_clause(self, declared_name: str) -> str:
        self.expect_keyword("end")
        end_name = ""
        if self.current.kind == "IDENT":
            end_name = self.advance().text
            if end_name != declared_name:
                self.note(
                    f"'end {end_name}' closes declaration {declared_name!r} "
                    f"(name mismatch, as in the paper)"
                )
        self.skip_semicolons()
        return end_name

    # -- obj-type -----------------------------------------------------------------

    def obj_type_decl(self) -> ObjTypeDecl:
        line = self.current.line
        self.expect_keyword("obj-type")
        name = self.expect_ident().text
        if self.current.is_op("=", ":"):
            self.advance()
        decl = ObjTypeDecl(name, line=line)
        while True:
            self.skip_semicolons()
            token = self.current
            if token.is_keyword("end"):
                decl.end_name = self.end_clause(name)
                break
            if token.is_keyword("inheritor-in") or token.is_keyword("inheritor"):
                if token.is_keyword("inheritor"):
                    self.note("accepting 'inheritor:' as 'inheritor-in:' (paper typo)")
                self.advance()
                self.expect_op(":")
                decl.inheritor_in.append(self.expect_ident().text)
                while self.current.is_op(","):
                    self.advance()
                    decl.inheritor_in.append(self.expect_ident().text)
            elif token.is_keyword("attributes"):
                self.advance()
                decl.attributes.extend(self.attribute_section())
            elif token.is_keyword("types-of-subclasses"):
                self.advance()
                decl.subclasses.extend(self.subclass_section(name))
            elif token.is_keyword("types-of-subrels") or token.is_keyword("connections"):
                if token.is_keyword("connections"):
                    self.note("accepting 'connections:' as 'types-of-subrels:'")
                self.advance()
                decl.subrels.extend(self.subrel_section())
            elif token.is_keyword("constraints"):
                self.advance()
                existing = decl.constraints
                block = self.raw_block(multi=True)
                decl.constraints = f"{existing}; {block}" if existing else block
            elif token.kind == "EOF":
                raise self.error(f"obj-type {name!r} is missing its 'end'")
            else:
                raise self.error(f"unexpected token in obj-type {name!r}")
        return decl

    # -- rel-type -----------------------------------------------------------------

    def participant_group(self) -> ParticipantDecl:
        line = self.current.line
        names = [self.expect_ident().text]
        while self.current.is_op(","):
            self.advance()
            names.append(self.expect_ident().text)
        self.expect_op(":")
        many = False
        if self.current.is_keyword("set-of"):
            many = True
            self.advance()
        if self.current.is_keyword("object-of-type"):
            self.advance()
            type_name: Optional[str] = self.expect_ident().text
        elif self.current.is_keyword("object"):
            self.advance()
            type_name = None
        else:
            raise self.error("expected 'object-of-type <name>' or 'object'")
        return ParticipantDecl(tuple(names), type_name, many, line=line)

    def relates_section(self) -> List[ParticipantDecl]:
        self.expect_op(":")
        groups: List[ParticipantDecl] = []
        while True:
            self.skip_semicolons()
            if self.current.kind != "IDENT":
                break
            groups.append(self.participant_group())
        return groups

    def rel_type_decl(self) -> RelTypeDecl:
        line = self.current.line
        self.expect_keyword("rel-type")
        name = self.expect_ident().text
        if self.current.is_op("=", ":"):
            self.advance()
        decl = RelTypeDecl(name, line=line)
        while True:
            self.skip_semicolons()
            token = self.current
            if token.is_keyword("end"):
                decl.end_name = self.end_clause(name)
                break
            if token.is_keyword("relates"):
                self.advance()
                decl.relates.extend(self.relates_section())
            elif token.is_keyword("attributes"):
                self.advance()
                decl.attributes.extend(self.attribute_section())
            elif token.is_keyword("types-of-subclasses"):
                self.advance()
                decl.subclasses.extend(self.subclass_section(name))
            elif token.is_keyword("types-of-subrels") or token.is_keyword("connections"):
                self.advance()
                decl.subrels.extend(self.subrel_section())
            elif token.is_keyword("constraints"):
                self.advance()
                existing = decl.constraints
                block = self.raw_block(multi=True)
                decl.constraints = f"{existing}; {block}" if existing else block
            elif token.kind == "EOF":
                raise self.error(f"rel-type {name!r} is missing its 'end'")
            else:
                raise self.error(f"unexpected token in rel-type {name!r}")
        return decl

    # -- inher-rel-type ---------------------------------------------------------------

    def inher_rel_type_decl(self, keyword_consumed: bool = False) -> InherRelTypeDecl:
        line = self.current.line
        if not keyword_consumed:
            self.expect_keyword("inher-rel-type")
        name = self.expect_ident().text
        if self.current.is_op("=", ":"):
            self.advance()
        decl = InherRelTypeDecl(name, line=line)
        while True:
            self.skip_semicolons()
            token = self.current
            if token.is_keyword("end"):
                decl.end_name = self.end_clause(name)
                break
            if token.is_keyword("transmitter"):
                self.advance()
                self.expect_op(":")
                if self.current.is_keyword("object-of-type"):
                    self.advance()
                    decl.transmitter_type = self.expect_ident().text
                else:
                    raise self.error("transmitter must be 'object-of-type <name>'")
            elif token.is_keyword("inheritor"):
                self.advance()
                self.expect_op(":")
                if self.current.is_keyword("object-of-type"):
                    self.advance()
                    decl.inheritor_type = self.expect_ident().text
                elif self.current.is_keyword("object"):
                    self.advance()
                    decl.inheritor_type = None
                else:
                    raise self.error("inheritor must be 'object-of-type <name>' or 'object'")
            elif token.is_keyword("inheriting"):
                self.advance()
                self.expect_op(":")
                decl.inheriting.append(self.expect_ident().text)
                while self.current.is_op(","):
                    self.advance()
                    if self.current.kind != "IDENT":
                        # The paper's AllOf_BoltType ends "Length, Diameter,"
                        self.note("tolerating trailing comma in inheriting clause")
                        break
                    decl.inheriting.append(self.expect_ident().text)
            elif token.is_keyword("attributes"):
                self.advance()
                decl.attributes.extend(self.attribute_section())
            elif token.is_keyword("types-of-subclasses"):
                self.advance()
                decl.subclasses.extend(self.subclass_section(name))
            elif token.is_keyword("constraints"):
                self.advance()
                existing = decl.constraints
                block = self.raw_block(multi=True)
                decl.constraints = f"{existing}; {block}" if existing else block
            elif token.kind == "EOF":
                raise self.error(f"inher-rel-type {name!r} is missing its 'end'")
            else:
                raise self.error(f"unexpected token in inher-rel-type {name!r}")
        return decl


def parse_schema_source(source: str) -> Schema:
    """Parse DDL source text into a :class:`~repro.ddl.ast.Schema`."""
    return _DdlParser(source).parse()
