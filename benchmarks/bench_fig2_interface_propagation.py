"""E2 — Figure 2: interface-update propagation to N implementations.

The claim quantified: with value inheritance, a transmitter update costs
O(1) regardless of how many implementations exist (they read through),
while a copy-based regime must re-materialise every copy — O(N·size).
Read-through adds a small constant per access.
"""

from repro.composition import clone_object, stale_members
from repro.workloads import gate_database, make_implementation, make_interface


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for fanout in [10] if suite.quick else [1, 10, 100]:

        @suite.case(f"update_with_inheritance[{fanout}]")
        def inherit_case(fanout=fanout):
            """One attribute write, regardless of inheritor count."""
            db = gate_database("fig2-bench")
            iface = make_interface(db)
            for _ in range(fanout):
                make_implementation(db, iface)
            counter = iter(range(10**9))
            return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

        @suite.case(f"update_with_copies[{fanout}]")
        def copy_case(fanout=fanout):
            """The copy baseline: the update is pushed into every copy."""
            db = gate_database("fig2-bench")
            iface = make_interface(db)
            copies = [clone_object(iface) for _ in range(fanout)]
            counter = iter(range(10**9))

            def update_and_refresh():
                value = 10 + next(counter) % 50
                iface.set_attribute("Length", value)
                for copy in copies:
                    copy._attrs["Length"] = value

            return update_and_refresh

    @suite.case("local_read")
    def local_case():
        iface = make_interface(gate_database("fig2-bench"))
        return lambda: iface.get_member("Length")

    @suite.case("inherited_read")
    def inherited_case():
        """One delegation hop: the price of always-fresh data."""
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        assert impl.get_member("Length") == iface.get_member("Length")
        return lambda: impl.get_member("Length")

    if suite.quick:
        return

    @suite.case("inherited_subclass_read")
    def subclass_case():
        db = gate_database("fig2-bench")
        impl = make_implementation(db, make_interface(db))
        return lambda: impl.get_member("Pins")

    for n_copies in [10, 100]:

        @suite.case(f"copy_staleness_scan[{n_copies}]")
        def staleness_case(n_copies=n_copies):
            """What the copy regime must additionally run to regain the
            freshness inheritance gives for free."""
            iface = make_interface(gate_database("fig2-bench"))
            copies = [clone_object(iface) for _ in range(n_copies)]
            iface.set_attribute("Length", 99)

            def scan():
                return sum(1 for copy in copies if stale_members(copy, iface))

            assert scan() == n_copies
            return scan
