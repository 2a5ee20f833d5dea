"""E13 — ablation: observability overhead on the hot paths.

The instrumentation contract: with ``observe=False`` (the default) the
engine pays one attribute load and a branch per instrumented site — within
noise of the uninstrumented baseline rows of E2.  With ``observe=True``
every transmitter update additionally walks its propagation fan-out, which
is the measurement the ROADMAP's scaling work needs.

Rows to compare:

* ``update_observe_off``  vs  E2's ``update_with_inheritance`` — noise;
* ``update_observe_on``   — the cost of measuring a fan-out of N;
* ``inherited_read_observe_{off,on}`` — one counter increment per hop.
"""

from repro.workloads import gate_database, make_implementation, make_interface


def _setup(n_impls, observe):
    db = gate_database("e13-bench")
    if observe:
        db.enable_observability(tracing=False)
    iface = make_interface(db)
    for _ in range(n_impls):
        make_implementation(db, iface)
    return db, iface


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for fanout in [10] if suite.quick else [1, 10, 100]:

        @suite.case(f"update_observe_off[{fanout}]")
        def dark_case(fanout=fanout):
            """Must match E2's update_with_inheritance within noise."""
            db, iface = _setup(fanout, observe=False)
            assert db.obs is None
            counter = iter(range(10**9))
            return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

        @suite.case(f"update_observe_on[{fanout}]")
        def observed_case(fanout=fanout):
            """Measured updates pay the O(fan-out) propagation walk."""
            db, iface = _setup(fanout, observe=True)
            counter = iter(range(10**9))

            def update():
                iface.set_attribute("Length", 10 + next(counter) % 50)

            update()
            assert db.obs.metrics.value("propagation.updates") > 0
            return update

    @suite.case("inherited_read_observe_off")
    def read_dark_case():
        db, iface = _setup(1, observe=False)
        impl = db.objects_of_type("GateImplementation")[0]
        return lambda: impl.get_member("Length")

    @suite.case("inherited_read_observe_on")
    def read_observed_case():
        db, iface = _setup(1, observe=True)
        impl = db.objects_of_type("GateImplementation")[0]
        impl.get_member("Length")
        assert db.obs.metrics.value("reads.inherited") > 0
        return lambda: impl.get_member("Length")
