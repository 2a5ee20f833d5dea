"""E7 — §4.2 ablation: selective permeability and hierarchy depth.

Measures the read path of value inheritance:

* resolution cost vs. the width of the `inheriting:` list (narrow
  SomeOf-style relationships vs. AllOf);
* resolution cost vs. abstraction-hierarchy depth (each level adds one
  delegation hop);
* the type-level cost of computing effective members for wide schemas.
"""

from repro.core import (
    INTEGER,
    InheritanceRelationshipType,
    ObjectType,
    new_object,
)
from repro.workloads import gate_database


def wide_transmitter_type(width):
    return ObjectType(
        f"Wide{width}",
        attributes={f"A{i}": INTEGER for i in range(width)},
    )


def wide_inheritor(width, rel_name, inheriting):
    """An inheritor of a ``width``-attribute transmitter via ``inheriting``."""
    transmitter_type = wide_transmitter_type(width)
    rel = InheritanceRelationshipType(rel_name, transmitter_type, inheriting)
    inheritor_type = ObjectType("N")
    inheritor_type.declare_inheritor_in(rel)
    transmitter = new_object(transmitter_type, **{f"A{i}": i for i in range(width)})
    return new_object(inheritor_type, transmitter=transmitter)


def _chain(db, depth):
    """A ``depth``-level chain inheriting ``V``; ``db`` may be None."""
    base_type = ObjectType("L0", attributes={"V": INTEGER})
    current_type = base_type
    top = new_object(base_type, database=db, V=42)
    current = top
    for level in range(1, depth + 1):
        rel = InheritanceRelationshipType(f"R{level}", current_type, ["V"])
        next_type = ObjectType(f"L{level}")
        next_type.declare_inheritor_in(rel)
        current = new_object(
            next_type, database=db, transmitter=current, via=rel
        )
        current_type = next_type
    return top, current


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for width in [16] if suite.quick else [2, 16, 64]:

        @suite.case(f"narrow_read[{width}]")
        def narrow_case(width=width):
            """Inherit only one of `width` attributes — the SomeOf pattern."""
            inheritor = wide_inheritor(width, "Narrow", ["A0"])
            assert inheritor["A0"] == 0
            return lambda: inheritor.get_member("A0")

        @suite.case(f"allof_read[{width}]")
        def allof_case(width=width):
            """Inherit all attributes; read the *last* declared one."""
            inheritor = wide_inheritor(
                width, "AllOf", [f"A{i}" for i in range(width)]
            )
            assert inheritor[f"A{width - 1}"] == width - 1
            return lambda: inheritor.get_member(f"A{width - 1}")

    for depth in [4] if suite.quick else [1, 4, 8]:

        @suite.case(f"chain_read[{depth}]")
        def chain_case(depth=depth):
            """GateInterface_I-style hierarchies: one hop per level."""
            _top, bottom = _chain(gate_database("e7-bench"), depth)
            assert bottom["V"] == 42
            return lambda: bottom.get_member("V")

    if suite.quick:
        return

    for width in [2, 16, 64]:

        @suite.case(f"effective_attributes_cost[{width}]")
        def effective_case(width=width):
            rel = InheritanceRelationshipType(
                "AllOf", wide_transmitter_type(width), [f"A{i}" for i in range(width)]
            )
            inheritor_type = ObjectType("N", attributes={"Own": INTEGER})
            inheritor_type.declare_inheritor_in(rel)
            assert len(inheritor_type.effective_attributes()) == width + 1
            return inheritor_type.effective_attributes

    for depth in [1, 4, 8]:

        @suite.case(f"update_at_root_constant[{depth}]")
        def update_case(depth=depth):
            """Updates stay O(1) no matter how deep the hierarchy below."""
            top, _bottom = _chain(None, depth)
            counter = iter(range(10**9))
            return lambda: top.set_attribute("V", next(counter))
