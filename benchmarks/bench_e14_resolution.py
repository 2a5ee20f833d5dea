"""E14 — resolution engine: compiled plans vs. the interpretive walk.

The member-resolution refactor compiles a per-type dispatch table
(:mod:`repro.core.resolution`) validated by epoch counters.  This
experiment quantifies the move:

* deep-chain inherited reads vs. the original interpretive walk (kept as
  ``naive_get_member``) — both the steady state (memoised holder, O(1)
  epoch validation) and the cold compiled walk; the acceptance target is
  ≥3× at depth 8;
* diamond dispatch (two candidate relationships, declaration order);
* plan-compilation cost and amortisation (``visible_member_names``).
"""

import pytest

from repro.core import INTEGER, InheritanceRelationshipType, ObjectType, new_object
from repro.core import resolution

DEPTHS = [4, 8, 16]


def build_chain(depth, prefix):
    """A depth-level transmitter chain; returns (top, bottom)."""
    base_type = ObjectType(f"{prefix}L0", attributes={"V": INTEGER})
    current_type = base_type
    top = new_object(base_type, V=42)
    current = top
    for level in range(1, depth + 1):
        rel = InheritanceRelationshipType(f"{prefix}R{level}", current_type, ["V"])
        next_type = ObjectType(f"{prefix}L{level}")
        next_type.declare_inheritor_in(rel)
        current = new_object(next_type, transmitter=current, via=rel)
        current_type = next_type
    return top, current


class TestDeepChainReads:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_plan_read(self, benchmark, depth):
        """Steady state: memoised holder, two epoch compares, live value."""
        _top, bottom = build_chain(depth, "P")
        assert bottom.get_member("V") == 42  # warm plan + holder memo
        benchmark(bottom.get_member, "V")

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_plan_walk_cold(self, benchmark, depth):
        """First-read cost: the compiled iterative walk, memo discarded."""
        _top, bottom = build_chain(depth, "W")
        memo = bottom._member_memo

        def cold_read():
            memo.clear()
            return bottom.get_member("V")

        assert cold_read() == 42
        benchmark(cold_read)

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_interpretive_read(self, benchmark, depth):
        """The seed delegation path: re-scan inheritor-in at every level."""
        _top, bottom = build_chain(depth, "N")
        assert resolution.naive_get_member(bottom, "V") == 42
        benchmark(resolution.naive_get_member, bottom, "V")


class TestDiamondDispatch:
    def test_diamond_read_plan(self, benchmark):
        """Two candidate relationships: declaration order decides."""
        transmitter_type = ObjectType(
            "DiaT", attributes={"A": INTEGER, "B": INTEGER}
        )
        rel_a = InheritanceRelationshipType("DiaA", transmitter_type, ["A", "B"])
        rel_b = InheritanceRelationshipType("DiaB", transmitter_type, ["A"])
        inheritor_type = ObjectType("DiaI")
        inheritor_type.declare_inheritor_in(rel_a)
        inheritor_type.declare_inheritor_in(rel_b)
        t1 = new_object(transmitter_type, A=1, B=2)
        t2 = new_object(transmitter_type, A=3, B=4)
        inh = new_object(inheritor_type)
        from repro.core import bind

        bind(inh, t2, rel_b)
        bind(inh, t1, rel_a)
        assert inh.get_member("A") == 1  # rel_a declared first
        benchmark(inh.get_member, "A")


class TestPlanCompilation:
    def test_plan_compile_wide_type(self, benchmark):
        """One-off compile cost for a 64-attribute type with inheritance."""
        transmitter_type = ObjectType(
            "WideT", attributes={f"A{i}": INTEGER for i in range(64)}
        )
        rel = InheritanceRelationshipType(
            "WideRel", transmitter_type, [f"A{i}" for i in range(64)]
        )
        inheritor_type = ObjectType("WideI", attributes={"Own": INTEGER})
        inheritor_type.declare_inheritor_in(rel)
        benchmark(resolution.compile_plan, inheritor_type)

    def test_visible_member_names_amortised(self, benchmark):
        """Precompiled member order: a tuple load after the epoch check."""
        transmitter_type = ObjectType(
            "VisT", attributes={f"A{i}": INTEGER for i in range(32)}
        )
        rel = InheritanceRelationshipType(
            "VisRel", transmitter_type, [f"A{i}" for i in range(32)]
        )
        inheritor_type = ObjectType("VisI")
        inheritor_type.declare_inheritor_in(rel)
        obj = new_object(inheritor_type)
        assert len(obj.visible_member_names()) == 33
        benchmark(obj.visible_member_names)


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    depths = [8] if suite.quick else [8, 16]
    for depth in depths:

        @suite.case(f"plan_read[{depth}]")
        def plan_case(depth=depth):
            _top, bottom = build_chain(depth, "P")
            assert bottom.get_member("V") == 42
            return lambda: bottom.get_member("V")

        @suite.case(f"plan_walk_cold[{depth}]")
        def cold_case(depth=depth):
            _top, bottom = build_chain(depth, "W")
            memo = bottom._member_memo

            def cold_read():
                memo.clear()
                return bottom.get_member("V")

            assert cold_read() == 42
            return cold_read

        @suite.case(f"interpretive_read[{depth}]")
        def interpretive_case(depth=depth):
            _top, bottom = build_chain(depth, "N")
            assert resolution.naive_get_member(bottom, "V") == 42
            return lambda: resolution.naive_get_member(bottom, "V")
