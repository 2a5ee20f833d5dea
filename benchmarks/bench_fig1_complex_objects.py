"""E1 — Figure 1: complex-object construction and navigation.

Regenerates the Figure 1 scenario at scale: building Gate objects with N
elementary subgates (pins + wiring), deep traversal, deep constraint
checking and cascade deletion.  Expected shape: traversal and deletion
grow linearly in the number of subobjects; construction and the deep
check grow close to quadratically, because each wire's ``where``
restriction scans the pins of every subgate.
"""

from repro.engine.query import walk_tree
from repro.workloads import gate_database, make_flipflop


def build_gate(db, n_subgates):
    gate = db.create_object("Gate", Length=100, Width=50)
    out_prev = None
    ext_in = gate.subclass("Pins").create(InOut="IN", PinLocation=(0, 0))
    wires = gate.subrel("Wires")
    for i in range(n_subgates):
        sub = gate.subclass("SubGates").create(
            Function="NAND", GatePosition={"X": i, "Y": 0}
        )
        a = sub.subclass("Pins").create(InOut="IN", PinLocation=(0, 0))
        sub.subclass("Pins").create(InOut="IN", PinLocation=(0, 1))
        out = sub.subclass("Pins").create(InOut="OUT", PinLocation=(1, 0))
        wires.create({"Pin1": out_prev if out_prev is not None else ext_in, "Pin2": a})
        out_prev = out
    return gate


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [10] if suite.quick else [10, 50, 200]:

        @suite.case(f"build_gate_chain[{n}]")
        def build_case(n=n):
            db = gate_database("fig1-bench")
            return lambda: build_gate(db, n)

        @suite.case(f"walk_tree[{n}]")
        def walk_case(n=n):
            gate = build_gate(gate_database("fig1-bench"), n)

            def walk():
                return sum(1 for _ in walk_tree(gate))

            assert walk() == 2 + 4 * n
            return walk

        @suite.case(f"deep_constraint_check[{n}]")
        def check_case(n=n):
            gate = build_gate(gate_database("fig1-bench"), n)
            return lambda: gate.check_constraints(True)

    if suite.quick:
        return

    @suite.case("build_flipflop")
    def flipflop_case():
        db = gate_database("fig1-bench")
        return lambda: make_flipflop(db)

    for n in [10, 100]:

        @suite.case(f"cascade_delete[{n}]", setup=True)
        def delete_case(n=n):
            db = gate_database("fig1-bench")
            return (lambda: build_gate(db, n)), (lambda gate: gate.delete())
