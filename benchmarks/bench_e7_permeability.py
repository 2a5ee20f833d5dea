"""E7 — §4.2 ablation: selective permeability and hierarchy depth.

Measures the read path of value inheritance:

* resolution cost vs. the width of the `inheriting:` list (narrow
  SomeOf-style relationships vs. AllOf);
* resolution cost vs. abstraction-hierarchy depth (each level adds one
  delegation hop);
* the type-level cost of computing effective members for wide schemas.
"""

import pytest

from repro.core import (
    INTEGER,
    InheritanceRelationshipType,
    ObjectType,
    new_object,
)

WIDTHS = [2, 16, 64]
DEPTHS = [1, 4, 8]


def wide_transmitter_type(width):
    return ObjectType(
        f"Wide{width}",
        attributes={f"A{i}": INTEGER for i in range(width)},
    )


class TestPermeabilityWidth:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_narrow_relationship_read(self, benchmark, width):
        """Inherit only one of `width` attributes — the SomeOf pattern."""
        transmitter_type = wide_transmitter_type(width)
        rel = InheritanceRelationshipType("Narrow", transmitter_type, ["A0"])
        inheritor_type = ObjectType("N")
        inheritor_type.declare_inheritor_in(rel)
        transmitter = new_object(transmitter_type, **{f"A{i}": i for i in range(width)})
        inheritor = new_object(inheritor_type, transmitter=transmitter)
        assert inheritor["A0"] == 0
        benchmark(inheritor.get_member, "A0")

    @pytest.mark.parametrize("width", WIDTHS)
    def test_allof_relationship_read(self, benchmark, width):
        """Inherit all attributes; read the *last* declared one."""
        transmitter_type = wide_transmitter_type(width)
        rel = InheritanceRelationshipType(
            "AllOf", transmitter_type, [f"A{i}" for i in range(width)]
        )
        inheritor_type = ObjectType("N")
        inheritor_type.declare_inheritor_in(rel)
        transmitter = new_object(transmitter_type, **{f"A{i}": i for i in range(width)})
        inheritor = new_object(inheritor_type, transmitter=transmitter)
        benchmark(inheritor.get_member, f"A{width - 1}")

    @pytest.mark.parametrize("width", WIDTHS)
    def test_effective_attributes_cost(self, benchmark, width):
        transmitter_type = wide_transmitter_type(width)
        rel = InheritanceRelationshipType(
            "AllOf", transmitter_type, [f"A{i}" for i in range(width)]
        )
        inheritor_type = ObjectType("N", attributes={"Own": INTEGER})
        inheritor_type.declare_inheritor_in(rel)
        result = benchmark(inheritor_type.effective_attributes)
        assert len(result) == width + 1


class TestHierarchyDepth:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_read_through_chain(self, benchmark, depth):
        """GateInterface_I-style hierarchies: one hop per level."""
        base_type = ObjectType("L0", attributes={"V": INTEGER})
        current_type = base_type
        rels = []
        for level in range(1, depth + 1):
            rel = InheritanceRelationshipType(f"R{level}", current_type, ["V"])
            next_type = ObjectType(f"L{level}")
            next_type.declare_inheritor_in(rel)
            rels.append(rel)
            current_type = next_type

        top = new_object(base_type, V=42)
        current = top
        for level in range(1, depth + 1):
            obj_type = rels[level - 1].known_inheritor_types[0]
            current = new_object(obj_type, transmitter=current, via=rels[level - 1])
        assert current["V"] == 42
        benchmark(current.get_member, "V")

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_update_at_root_constant(self, benchmark, depth):
        """Updates stay O(1) no matter how deep the hierarchy below."""
        base_type = ObjectType("L0", attributes={"V": INTEGER})
        current_type = base_type
        top = new_object(base_type, V=0)
        current = top
        for level in range(1, depth + 1):
            rel = InheritanceRelationshipType(f"R{level}", current_type, ["V"])
            next_type = ObjectType(f"L{level}")
            next_type.declare_inheritor_in(rel)
            current = new_object(next_type, transmitter=current, via=rel)
            current_type = next_type
        counter = iter(range(10**9))
        benchmark(lambda: top.set_attribute("V", next(counter)))


def _chain(db, depth):
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
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    width = 16 if suite.quick else 64
    depth = 4 if suite.quick else 8

    @suite.case(f"narrow_read[{width}]")
    def narrow_case():
        transmitter_type = wide_transmitter_type(width)
        rel = InheritanceRelationshipType("Narrow", transmitter_type, ["A0"])
        inheritor_type = ObjectType("N")
        inheritor_type.declare_inheritor_in(rel)
        transmitter = new_object(
            transmitter_type, **{f"A{i}": i for i in range(width)}
        )
        inheritor = new_object(inheritor_type, transmitter=transmitter)
        assert inheritor["A0"] == 0
        return lambda: inheritor.get_member("A0")

    @suite.case(f"allof_read[{width}]")
    def allof_case():
        transmitter_type = wide_transmitter_type(width)
        rel = InheritanceRelationshipType(
            "AllOf", transmitter_type, [f"A{i}" for i in range(width)]
        )
        inheritor_type = ObjectType("N")
        inheritor_type.declare_inheritor_in(rel)
        transmitter = new_object(
            transmitter_type, **{f"A{i}": i for i in range(width)}
        )
        inheritor = new_object(inheritor_type, transmitter=transmitter)
        return lambda: inheritor.get_member(f"A{width - 1}")

    @suite.case(f"chain_read[{depth}]")
    def chain_case():
        from repro.workloads import gate_database

        db = gate_database("e7-bench")
        _top, bottom = _chain(db, depth)
        assert bottom["V"] == 42
        return lambda: bottom.get_member("V")
