"""E16 — ablation: causal-provenance overhead on the Figure-2 workload.

The provenance contract: with observability off the audit call sites cost
one attribute load and a branch (within noise of E13's dark rows); with
observability on but ``audit=False`` the engine behaves exactly as PR 1
shipped it; with the audit log attached every measured update additionally
appends one batched ``propagation.fanout`` record (listing every reached
inheritor) to the bounded ring — one list append per inheritor on the hot
path, with per-member expansion deferred to cone/export time.

Rows to compare, per fan-out N:

* ``update_dark``        — observe off: the disabled-path floor;
* ``update_audit_off``   — observe on, audit off: the PR-1 baseline;
* ``update_audit_on``    — observe on, audit on: the provenance tax;
* ``explain_value``      — the pure interpretive provenance walk itself.

Targets (EXPERIMENTS.md): audit on ≤ 10% over the PR-1 baseline at every
fan-out; dark ≤ 1% over E13's dark row (same code path, one extra branch).
"""

from repro.workloads import gate_database, make_implementation, make_interface


def _setup(n_impls, observe, audit=True):
    db = gate_database("e16-bench")
    if observe:
        db.enable_observability(tracing=False, audit=audit)
    iface = make_interface(db)
    for _ in range(n_impls):
        make_implementation(db, iface)
    return db, iface


def updater(iface):
    counter = iter(range(10**9))

    def update():
        iface.set_attribute("Length", 10 + next(counter) % 50)

    update()
    return update


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for fanout in [10] if suite.quick else [1, 10, 100]:

        @suite.case(f"update_dark[{fanout}]")
        def dark_case(fanout=fanout):
            """Observe off: the audit guards must stay one load + branch."""
            db, iface = _setup(fanout, observe=False)
            assert db.obs is None
            return updater(iface)

        @suite.case(f"update_audit_off[{fanout}]")
        def audit_off_case(fanout=fanout):
            """Observe on, audit off: the measurement baseline."""
            db, iface = _setup(fanout, observe=True, audit=False)
            update = updater(iface)
            assert db.obs.audit is None
            assert db.obs.metrics.value("propagation.updates") > 0
            return update

        @suite.case(f"update_audit_on[{fanout}]")
        def audit_on_case(fanout=fanout):
            """Audit on: one batched propagation.fanout record per update."""
            db, iface = _setup(fanout, observe=True, audit=True)
            update = updater(iface)
            audit = db.obs.audit
            assert audit is not None and audit.appended > 0
            fanouts = audit.records(kind="propagation.fanout")
            assert fanouts and len(fanouts[-1].detail["reached"]) == fanout
            cones = audit.cones(kind="attribute_updated")
            assert any(cone.breadth == fanout for cone in cones)
            return update

    @suite.case("explain_value")
    def explain_case():
        """The interpretive provenance walk for a one-hop inherited read."""
        db, iface = _setup(1, observe=False)
        impl = db.objects_of_type("GateImplementation")[0]
        provenance = db.explain_value(impl, "Length")
        assert provenance.holder is iface and provenance.hops == 1
        return lambda: db.explain_value(impl, "Length")

    if suite.quick:
        return

    @suite.case("cone_reconstruction")
    def cone_case():
        """Grouping a populated ring into cones (100 updates, fan-out 10)."""
        db, iface = _setup(10, observe=True, audit=True)
        for index in range(100):
            iface.set_attribute("Length", 10 + index % 50)
        audit = db.obs.audit
        cones = audit.cones("attribute_updated")
        assert cones and all(cone.breadth == 10 for cone in cones if cone.breadth)
        return lambda: audit.cones("attribute_updated")
