"""E9 — §6 ablation: lock inheritance and expansion locking.

* cost of a locked read with/without lock inheritance (plain objects vs.
  components with transmitters vs. deep abstraction chains);
* expansion locking vs. hierarchy size;
* the conflict-detection value: composite readers and component writers
  collide only when lock inheritance is on (asserted).
"""

import pytest

from repro.composition import add_component
from repro.errors import LockConflictError
from repro.txn import TransactionManager, inherited_lock_plan
from repro.workloads import (
    gate_database,
    generate_component_tree,
    make_implementation,
    make_interface,
)


def composite_db():
    db = gate_database("e9-bench")
    tm = TransactionManager(db)
    own_if = make_interface(db, length=40)
    impl = make_implementation(db, own_if)
    component_if = make_interface(db, length=10)
    slot = add_component(impl, "SubGates", component_if,
                         GateLocation={"X": 0, "Y": 0})
    return db, tm, impl, own_if, component_if, slot


class TestConflictDetection:
    def test_lock_inheritance_catches_cross_object_conflicts(self):
        """Not a timing: the §6 correctness claim.  The composite reader
        and the component writer touch *different objects*; only lock
        inheritance makes them conflict."""
        db, tm, impl, own_if, component_if, slot = composite_db()
        reader = tm.begin()
        reader.read(slot)
        writer = tm.begin()
        with pytest.raises(LockConflictError):
            writer.write(component_if, {"Length"})
        reader.commit()
        writer.write(component_if, {"Length"})
        writer.commit()


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""

    @suite.case("locked_read_plain")
    def plain_case():
        db, tm, impl, own_if, component_if, slot = composite_db()
        plain = db.create_object("PinType", InOut="IN")

        def run():
            txn = tm.begin()
            txn.read(plain)
            txn.commit()

        return run

    @suite.case("locked_read_inherited")
    def inherited_case():
        db, tm, impl, own_if, component_if, slot = composite_db()

        def run():
            txn = tm.begin()
            txn.read(slot)  # + scoped S lock on the component interface
            txn.commit()

        return run

    for depth in [2] if suite.quick else [1, 3, 5]:

        @suite.case(f"lock_expansion[{depth}]")
        def expansion_case(depth=depth):
            db = gate_database("e9-bench")
            tm = TransactionManager(db)
            top, _ = generate_component_tree(db, depth=depth, fanout=2)

            def run():
                txn = tm.begin()
                count = txn.lock_expansion(top)
                txn.commit()
                return count

            assert run() > 2 ** depth
            return run

    if suite.quick:
        return

    @suite.case("inherited_lock_plan")
    def plan_case():
        """The lock plan of an implementation two hops below the top."""
        db = gate_database("e9-bench")
        make_interface(db)
        top = db.create_object("GateInterface_I")
        top.subclass("Pins").create(InOut="IN")
        chain = db.create_object("GateInterface", transmitter=top, Length=1, Width=1)
        impl = db.create_object("GateImplementation", transmitter=chain)
        assert len(inherited_lock_plan(impl)) >= 2
        return lambda: inherited_lock_plan(impl)

    @suite.case("conflict_throughput")
    def conflict_case():
        """Rate of conflict checks: a writer probing a read-locked
        component (exception path included)."""
        db, tm, impl, own_if, component_if, slot = composite_db()
        reader = tm.begin()
        reader.read(slot)

        def probe():
            writer = tm.begin()
            try:
                writer.write(component_if, {"Length"})
            except LockConflictError:
                pass
            writer.abort()

        return probe
