"""Schema documentation generator.

Renders a catalog as a Markdown reference: domains, object types with
their members and constraints, relationship types with their roles, the
inheritance relationships with permeability lists, and an ASCII rendering
of the abstraction hierarchy (which type inherits from which through which
relationship) — the schema-level picture of the paper's Figures 2–4.
"""

from __future__ import annotations

from typing import List, Set

from ..core.objtype import TypeBase
from ..engine.catalog import Catalog, _BUILTIN_DOMAINS
from .unparse import unparse_domain

__all__ = ["document_catalog", "hierarchy_lines"]


def _member_rows(type_: TypeBase, catalog: Catalog) -> List[str]:
    rows: List[str] = []
    for name, spec in type_.attributes.items():
        rows.append(f"| `{name}` | attribute | {unparse_domain(spec.domain, catalog)} |")
    for name, spec in type_.subclass_specs.items():
        rows.append(f"| `{name}` | subclass | {spec.element_type.name} |")
    for name, spec in type_.subrel_specs.items():
        where = f" where `{spec.where_source}`" if spec.where_source else ""
        rows.append(f"| `{name}` | subrel | {spec.rel_type.name}{where} |")
    inherited = type_.inherited_member_names()
    for name in sorted(inherited):
        vias = [
            rel.name for rel in type_.inheritor_in if name in rel.inheriting
        ]
        rows.append(f"| `{name}` | inherited | via {', '.join(vias)} |")
    return rows


def hierarchy_lines(catalog: Catalog) -> List[str]:
    """ASCII abstraction hierarchy: transmitter types and their inheritors."""
    lines: List[str] = []
    transmitters = [
        t
        for t in catalog
        if getattr(t, "_transmitting_rel_types", []) and not t.inheritor_in
    ]

    def render(type_: TypeBase, prefix: str, seen: Set[int]) -> None:
        if id(type_) in seen:
            lines.append(f"{prefix}{type_.name} (…)")
            return
        seen = seen | {id(type_)}
        lines.append(f"{prefix}{type_.name}")
        for rel in getattr(type_, "_transmitting_rel_types", []):
            for inheritor in rel.known_inheritor_types:
                render(
                    inheritor,
                    f"{prefix}    └─[{rel.name}]→ ",
                    seen,
                )

    for root in transmitters:
        render(root, "", set())
    return lines


def document_catalog(catalog: Catalog, title: str = "Schema reference") -> str:
    """Render the whole catalog as a Markdown document."""
    out: List[str] = [f"# {title}", ""]

    domains = {
        name: domain
        for name, domain in catalog.domains().items()
        if name not in _BUILTIN_DOMAINS
    }
    if domains:
        out.append("## Domains")
        out.append("")
        out.append("| name | definition |")
        out.append("|------|------------|")
        for name, domain in domains.items():
            out.append(f"| `{name}` | {domain.describe()} |")
        out.append("")

    object_types = [
        t
        for t in catalog.object_types()
        if True
    ]
    if object_types:
        out.append("## Object types")
        out.append("")
        for type_ in object_types:
            out.append(f"### {type_.name}")
            out.append("")
            if type_.doc:
                out.append(type_.doc)
                out.append("")
            if type_.inheritor_in:
                rels = ", ".join(rel.name for rel in type_.inheritor_in)
                out.append(f"*Inheritor in:* {rels}")
                out.append("")
            rows = _member_rows(type_, catalog)
            if rows:
                out.append("| member | kind | type |")
                out.append("|--------|------|------|")
                out.extend(rows)
                out.append("")
            if type_.constraints:
                out.append("Constraints:")
                out.append("")
                for constraint in type_.constraints:
                    out.append(f"* `{constraint.source}`")
                out.append("")

    rel_types = catalog.relationship_types()
    if rel_types:
        out.append("## Relationship types")
        out.append("")
        for type_ in rel_types:
            out.append(f"### {type_.name}")
            out.append("")
            out.append("| role | participant |")
            out.append("|------|-------------|")
            for role, spec in type_.participants.items():
                out.append(f"| `{role}` | {spec.describe()} |")
            out.append("")
            rows = _member_rows(type_, catalog)
            if rows:
                out.append("| member | kind | type |")
                out.append("|--------|------|------|")
                out.extend(rows)
                out.append("")
            if type_.constraints:
                out.append("Constraints:")
                out.append("")
                for constraint in type_.constraints:
                    out.append(f"* `{constraint.source}`")
                out.append("")

    inher_types = catalog.inheritance_types()
    if inher_types:
        out.append("## Inheritance relationships")
        out.append("")
        out.append("| name | transmitter | inheritor | inheriting |")
        out.append("|------|-------------|-----------|------------|")
        for rel in inher_types:
            restriction = (
                rel.inheritor_type.name if rel.inheritor_type is not None else "object"
            )
            out.append(
                f"| `{rel.name}` | {rel.transmitter_type.name} | {restriction} "
                f"| {', '.join(rel.inheriting)} |"
            )
        out.append("")

    tree = hierarchy_lines(catalog)
    if tree:
        out.append("## Abstraction hierarchy")
        out.append("")
        out.append("```")
        out.extend(tree)
        out.append("```")
        out.append("")

    return "\n".join(out)
