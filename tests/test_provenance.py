"""Tests for the causal provenance layer (repro.obs.provenance / export).

Covers the causal stamps :meth:`EventBus.emit` threads through the cause
stack, the audit log and its JSONL sink, propagation cones against the
:func:`iter_propagation` oracle, the :func:`explain_value` walk against
:func:`naive_resolution_chain` / :func:`naive_get_member` over randomized
diamond schemas, and the stable ``repro.audit/1`` / ``repro.metrics/1``
schemas.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import resolution
from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY
from repro.core.inheritance import (
    InheritanceRelationshipType,
    iter_propagation,
    iter_propagation_depths,
)
from repro.core.objects import bind, new_object
from repro.core.objtype import ObjectType
from repro.ddl.paper import load_gate_schema
from repro.engine import Database
from repro.engine.events import EventBus
from repro.errors import ObjectDeletedError, ReproError, UnknownAttributeError
from repro.obs import (
    AUDIT_SCHEMA_VERSION,
    audit_snapshot,
    explain_value,
    render_audit_table,
)
from repro.txn import TransactionManager

_counter = [0]


def _uname(prefix):
    _counter[0] += 1
    return f"Prov{prefix}_{_counter[0]}"


@pytest.fixture
def db():
    db = Database("prov", observe=True)
    load_gate_schema(db.catalog)
    return db


def make_interface(db, length=10):
    iface = db.create_object("GateInterface", Length=length, Width=5)
    iface.subclass("Pins").create(InOut="IN")
    return iface


def make_implementation(db, iface):
    return db.create_object("GateImplementation", transmitter=iface)


# ---------------------------------------------------------------------------
# causal stamping on the bus
# ---------------------------------------------------------------------------


class TestCausalStamps:
    def test_seq_is_globally_monotonic_across_databases(self):
        a, b = EventBus(), EventBus()
        seqs = [
            a.emit("k1").seq,
            b.emit("k2").seq,
            a.emit("k3").seq,
        ]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_root_event_is_its_own_trace_with_no_cause(self):
        event = EventBus().emit("root")
        assert event.cause is None
        assert event.trace == event.seq

    def test_quiet_emit_skips_the_clock(self):
        # No handlers, no recording: the hot path must not read time().
        event = EventBus().emit("quiet")
        assert event.ts == 0.0

    def test_handled_emit_is_timestamped(self):
        bus = EventBus()
        bus.subscribe("k", lambda e: None)
        assert bus.emit("k").ts > 0.0

    def test_nested_emits_link_to_their_parent(self):
        bus = EventBus()
        children = []

        def handler(event):
            if event.kind == "parent":
                children.append(bus.emit("child"))

        bus.subscribe("parent", handler)
        bus.subscribe("child", lambda e: None)
        parent = bus.emit("parent")
        (child,) = children
        assert child.cause == parent.seq
        assert child.trace == parent.trace == parent.seq

    def test_grandchildren_keep_the_root_trace(self):
        bus = EventBus()
        collected = {}

        def on_a(event):
            collected["b"] = bus.emit("b")

        def on_b(event):
            collected["c"] = bus.emit("c")

        bus.subscribe("a", on_a)
        bus.subscribe("b", on_b)
        bus.subscribe("c", lambda e: None)
        a = bus.emit("a")
        assert collected["b"].cause == a.seq
        assert collected["c"].cause == collected["b"].seq
        assert collected["c"].trace == a.seq

    def test_cause_stack_unwinds_after_handlers(self):
        bus = EventBus()
        bus.subscribe("k", lambda e: None)
        bus.emit("k")
        later = bus.emit("k")
        assert later.cause is None
        assert bus.cause_context() is None


# ---------------------------------------------------------------------------
# the audit log
# ---------------------------------------------------------------------------


class TestAuditLog:
    def test_mirrors_bus_events_with_their_stamps(self, db):
        iface = make_interface(db)
        records = db.obs.audit.records(kind="attribute_updated")
        assert records  # creation set Length/Width
        # Mirrored records carry the event's own stamps (same total order).
        events = [
            e for e in db.obs.audit.events() if e.kind == "attribute_updated"
        ]
        assert [(e.seq, e.ts, e.cause, e.trace) for e in events] == [
            (r.seq, r.ts, r.cause, r.trace) for r in records
        ]
        assert iface.get_member("Length") == 10

    def test_derived_records_share_the_global_counter(self, db):
        audit = db.obs.audit
        before = db.events.emit("marker").seq
        record = audit.record("derived.kind", detail_key=1)
        after = db.events.emit("marker").seq
        assert before < record.seq < after

    def test_operation_frames_parent_enclosed_emits(self, db):
        audit = db.obs.audit
        with audit.operation("op.kind", txn=1) as op:
            inner = db.events.emit("inner")
        assert inner.cause == op.seq
        assert inner.trace == op.trace == op.seq
        outer = db.events.emit("outer")
        assert outer.cause is None

    def test_ring_is_bounded_but_appended_counts_all(self):
        bus = EventBus()
        from repro.obs.provenance import AuditLog

        log = AuditLog(bus, ring_size=4)
        for i in range(10):
            log.record("k", i=i)
        assert len(log) == 4
        assert log.appended == 10

    def test_records_filters(self, db):
        iface = make_interface(db)
        audit = db.obs.audit
        by_kind = audit.records(kind="attribute_updated")
        assert by_kind and all(r.kind == "attribute_updated" for r in by_kind)
        by_subject = audit.records(subject=iface)
        assert by_subject and all(r.subject is iface for r in by_subject)
        by_substring = audit.records(subject="GateInterface")
        # Mirrored events materialise to fresh AuditRecords per read, so
        # compare by seq (the stable identity), not object identity.
        assert {r.seq for r in by_subject} <= {r.seq for r in by_substring}
        trace = by_kind[0].trace
        assert all(r.trace == trace for r in audit.records(trace=trace))

    def test_jsonl_sink_receives_every_record(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        db = Database("sink")
        db.enable_observability(audit_sink=str(path))
        load_gate_schema(db.catalog)
        make_interface(db)
        db.obs.audit.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == db.obs.audit.appended
        assert all(
            set(line) == {"seq", "ts", "kind", "subject", "cause", "trace", "detail"}
            for line in lines
        )


# ---------------------------------------------------------------------------
# disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_observe_false_emits_zero_provenance_records(self):
        db = Database("dark")
        load_gate_schema(db.catalog)
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        iface.set_attribute("Length", 99)
        tm = TransactionManager(db)
        with tm.begin() as txn:
            txn.read(impl)
            txn.set(iface, "Width", 7)
            txn.commit()
        assert db.obs is None
        # The quiet bus still stamps seq/trace (deterministic replay) but
        # never reads the clock and keeps no audit anywhere.
        event = db.events.emit("probe")
        assert event.seq > 0 and event.ts == 0.0

    def test_hot_objects_carry_no_extra_attributes_when_dark(self):
        db = Database("dark2")
        load_gate_schema(db.catalog)
        iface = make_interface(db)
        assert not hasattr(iface, "audit")
        assert not any("provenance" in name for name in vars(iface))


# ---------------------------------------------------------------------------
# propagation cones
# ---------------------------------------------------------------------------


class TestPropagationCones:
    def test_cone_members_match_iter_propagation_exactly(self, db):
        iface = make_interface(db)
        impl_a = make_implementation(db, iface)
        impl_b = make_implementation(db, iface)
        iface.set_attribute("Length", 42)
        cones = db.obs.audit.cones(kind="attribute_updated")
        cone = [c for c in cones if c.root.subject is iface and c.breadth][-1]
        expected = [inh for _, inh in iter_propagation(iface, "Length")]
        assert cone.members() == expected
        assert {impl_a, impl_b} == set(cone.members())
        assert cone.breadth == 2
        assert cone.depth == 1
        assert cone.by_rel_type == {"AllOf_GateInterface": 2}

    def test_cone_depth_tracks_transitive_fanout(self):
        # A three-level chain: top -> mid -> leaf, all permeable.
        top_type = ObjectType(_uname("Top"), attributes={"alpha": ANY})
        rel1 = InheritanceRelationshipType(
            _uname("Rel1"), transmitter_type=top_type, inheriting=["alpha"]
        )
        mid_type = ObjectType(_uname("Mid"))
        mid_type.declare_inheritor_in(rel1)
        rel2 = InheritanceRelationshipType(
            _uname("Rel2"), transmitter_type=mid_type, inheriting=["alpha"]
        )
        leaf_type = ObjectType(_uname("Leaf"))
        leaf_type.declare_inheritor_in(rel2)

        db = Database("deep", observe=True)
        top = db.create_object(top_type, alpha=1)
        mid = db.create_object(mid_type, transmitter=top, via=rel1)
        leaf = db.create_object(leaf_type, transmitter=mid, via=rel2)
        top.set_attribute("alpha", 2)

        cone = [
            c
            for c in db.obs.audit.cones(kind="attribute_updated")
            if c.root.subject is top and c.breadth
        ][-1]
        assert cone.members() == [
            inh for _, inh in iter_propagation(top, "alpha")
        ]
        assert set(cone.members()) == {mid, leaf}
        assert cone.depth == 2
        depths = {
            (link.rel_type.name, inh): depth
            for link, inh, depth in iter_propagation_depths(top, "alpha")
        }
        assert depths[(rel1.name, mid)] == 1
        assert depths[(rel2.name, leaf)] == 2

    def test_iter_propagation_depths_membership_equals_iter_propagation(self, db):
        iface = make_interface(db)
        make_implementation(db, iface)
        make_implementation(db, iface)
        with_depth = [
            (link, inh) for link, inh, _ in iter_propagation_depths(iface, "Length")
        ]
        assert with_depth == list(iter_propagation(iface, "Length"))

    def test_txn_abort_parents_its_restores(self, db):
        iface = make_interface(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        txn.set(iface, "Length", 77)
        txn.abort()
        audit = db.obs.audit
        (abort_record,) = audit.records(kind="txn.abort")
        restores = audit.records(kind="attribute_restored", trace=abort_record.trace)
        assert restores and all(r.cause == abort_record.seq for r in restores)
        assert iface.get_member("Length") == 10

    def test_txn_read_parents_lock_inheritance(self, db):
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        tm = TransactionManager(db)
        with tm.begin() as txn:
            txn.read(impl)
        audit = db.obs.audit
        reads = [r for r in audit.records(kind="txn.read") if r.subject is impl]
        assert reads
        inherited = audit.records(kind="lock.inherited", trace=reads[-1].trace)
        assert inherited and any(r.subject is iface for r in inherited)
        assert all(r.cause == reads[-1].seq for r in inherited)

    def test_index_maintenance_is_linked_to_its_mutation(self, db):
        iface = make_interface(db)
        db.create_class("Faces", "GateInterface")
        db.class_("Faces").add(iface)
        db.indexes.ensure_value_index(
            "class", "Faces", iface.object_type, "Length"
        )
        iface.set_attribute("Length", 55)
        audit = db.obs.audit
        updates = [
            r
            for r in audit.records(kind="attribute_updated")
            if r.subject is iface and r.detail.get("attribute") == "Length"
        ]
        maintenance = audit.records(kind="index.maintenance", subject=iface)
        assert maintenance
        assert maintenance[-1].cause == updates[-1].seq
        assert maintenance[-1].detail["index"] == "class:Faces.Length"

    def test_maintenance_is_one_batched_record_read_per_target(self, db):
        iface = make_interface(db)
        impls = [make_implementation(db, iface) for _ in range(4)]
        impl_type = impls[0].object_type
        db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Length")
        db.views.min_view_source = 0
        assert db.views.view_for(impl_type) is not None
        audit = db.obs.audit
        before = audit.appended
        iface.set_attribute("Length", 77)
        # The event, its fan-out and one maintenance batch.
        assert audit.appended - before == 3
        (update,) = [
            r for r in audit.records(kind="attribute_updated", subject=iface)
            if r.detail["new"] == 77
        ]
        assert "cone" not in update.detail
        assert "cone" not in update.as_dict()["detail"]
        for kind in ("index.maintenance", "view.maintenance"):
            expanded = audit.records(kind=kind, trace=update.trace)
            assert [r.subject for r in expanded] == impls
            assert all(r.cause == update.seq for r in expanded)
        view_record = audit.records(kind="view.maintenance", subject=impls[0])[-1]
        assert view_record.detail == {
            "attribute": "Length",
            "view": impl_type.name,
            "reason": "attribute_updated",
        }

    def test_jsonl_sink_expands_maintenance_batches(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        db = Database("sink-batch")
        db.enable_observability(audit_sink=str(path))
        load_gate_schema(db.catalog)
        iface = make_interface(db)
        impls = [make_implementation(db, iface) for _ in range(3)]
        impl_type = impls[0].object_type
        db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Length")
        iface.set_attribute("Length", 12)
        db.obs.audit.close()
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert kinds.count("index.maintenance") == 3
        assert "maintenance.batch" not in kinds


# ---------------------------------------------------------------------------
# explain_value
# ---------------------------------------------------------------------------


class TestExplainValue:
    def test_inherited_value(self, db):
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        prov = db.explain_value(impl, "Length")
        assert prov.value == 10
        assert prov.holder is iface
        assert prov.hops == 1
        assert prov.source == "transmitter-attribute"
        assert prov.chain() == resolution.naive_resolution_chain(impl, "Length")
        followed = [
            d for step in prov.steps for d in step.decisions if d["followed"]
        ]
        assert [d["rel_type"] for d in followed] == ["AllOf_GateInterface"]

    def test_local_value(self, db):
        iface = make_interface(db)
        prov = explain_value(iface, "Length")
        assert prov.value == 10
        assert prov.holder is iface
        assert prov.hops == 0
        assert prov.source == "local-attribute"

    def test_surrogate_and_subclass_members(self, db):
        iface = make_interface(db)
        assert explain_value(iface, "surrogate").source == "surrogate"
        pins = explain_value(iface, "Pins")
        assert pins.source == "subclass"
        assert pins.value == iface.get_member("Pins")

    def test_default_and_declared_unset(self):
        obj_type = ObjectType(
            _uname("Def"),
            attributes={
                "with_default": AttributeSpec("with_default", ANY, default=5),
                "bare": ANY,
            },
        )
        obj = new_object(obj_type)
        assert explain_value(obj, "with_default").source == "default"
        assert explain_value(obj, "with_default").value == 5
        assert explain_value(obj, "bare").source == "declared-unset"
        assert explain_value(obj, "bare").value is None

    def test_diamond_follows_declaration_order(self):
        t_type = ObjectType(_uname("DTrans"), attributes={"alpha": ANY})
        rel_a = InheritanceRelationshipType(
            _uname("DRelA"), transmitter_type=t_type, inheriting=["alpha"]
        )
        rel_b = InheritanceRelationshipType(
            _uname("DRelB"), transmitter_type=t_type, inheriting=["alpha"]
        )
        i_type = ObjectType(_uname("DInh"))
        i_type.declare_inheritor_in(rel_a)
        i_type.declare_inheritor_in(rel_b)
        t1, t2 = new_object(t_type), new_object(t_type)
        t1.set_attribute("alpha", "via-a")
        t2.set_attribute("alpha", "via-b")
        inh = new_object(i_type)
        bind(inh, t2, rel_b)
        bind(inh, t1, rel_a)
        prov = explain_value(inh, "alpha")
        assert prov.value == "via-a" == inh.get_member("alpha")
        assert prov.holder is t1
        # Both declarations are reported, in order, with their verdicts.
        decisions = prov.steps[0].decisions
        assert [d["rel_type"] for d in decisions] == [rel_a.name, rel_b.name]
        assert decisions[0]["followed"] and not decisions[1]["followed"]
        assert decisions[1]["bound"] and decisions[1]["permeable"]

    def test_served_by_memo_after_a_read(self, db):
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        fresh = db.explain_value(impl, "Length")
        assert fresh.served_by == "plan-walk"
        impl.get_member("Length")  # populate the holder memo
        warm = db.explain_value(impl, "Length")
        assert warm.served_by == "holder-memo"
        # A rebind invalidates: provenance reports the walk again.
        impl.inheritance_links[0].unbind()
        assert db.explain_value(impl, "Length").served_by == "plan-walk"

    def test_reports_tracking_indexes(self, db):
        iface = make_interface(db)
        db.create_class("Faces", "GateInterface")
        db.class_("Faces").add(iface)
        db.indexes.ensure_value_index(
            "class", "Faces", iface.object_type, "Length"
        )
        prov = db.explain_value(iface, "Length")
        assert prov.indexes == ["class:Faces.Length"]

    def test_raises_exactly_like_the_read(self, db):
        iface = make_interface(db)
        with pytest.raises(UnknownAttributeError) as caught:
            explain_value(iface, "NoSuchMember")
        with pytest.raises(UnknownAttributeError) as expected:
            resolution.naive_get_member(iface, "NoSuchMember")
        assert str(caught.value) == str(expected.value)
        iface.delete(unbind_inheritors=True)
        with pytest.raises(ObjectDeletedError):
            explain_value(iface, "Length")

    def test_epochs_reflect_holder_mutation(self, db):
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        before = db.explain_value(impl, "Length").epochs
        iface.set_attribute("Length", 11)
        after = db.explain_value(impl, "Length").epochs
        assert after["holder_mutation"] > before["holder_mutation"]
        assert set(before) == {"schema", "binding", "holder_mutation"}

    def test_render_and_as_dict_are_stable(self, db):
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        prov = db.explain_value(impl, "Length")
        text = prov.render()
        assert "holder:" in text and "followed" in text
        shape = prov.as_dict()
        assert set(shape) == {
            "object", "attribute", "value", "holder", "hops", "source",
            "served_by", "epochs", "indexes", "views", "path",
        }
        json.dumps(shape)  # JSON-safe


member_subsets = st.sets(
    st.sampled_from(("alpha", "beta", "gamma")), min_size=1, max_size=3
)


@settings(max_examples=50, deadline=None)
@given(
    transmitter_members=member_subsets,
    perm_a=member_subsets,
    perm_b=member_subsets,
    script=st.tuples(*(st.booleans() for _ in range(4))),
    probe=st.sampled_from(("alpha", "beta", "gamma", "surrogate", "missing")),
)
def test_explain_value_chain_matches_naive_oracle(
    transmitter_members, perm_a, perm_b, script, probe
):
    """explain_value's chain == naive_resolution_chain, value ==
    naive_get_member, over randomized diamond schemas."""
    bind_a, bind_b, set_locals, declare_b_first = script
    # Permeability clauses must name transmitter members.
    perm_a = (perm_a & transmitter_members) or set(sorted(transmitter_members)[:1])
    perm_b = (perm_b & transmitter_members) or set(sorted(transmitter_members)[-1:])
    attrs = {name: ANY for name in sorted(transmitter_members)}
    t_type = ObjectType(_uname("HTrans"), attributes=attrs)
    rel_a = InheritanceRelationshipType(
        _uname("HRelA"), transmitter_type=t_type, inheriting=sorted(perm_a)
    )
    rel_b = InheritanceRelationshipType(
        _uname("HRelB"), transmitter_type=t_type, inheriting=sorted(perm_b)
    )
    i_type = ObjectType(_uname("HInh"))
    for rel in (rel_b, rel_a) if declare_b_first else (rel_a, rel_b):
        i_type.declare_inheritor_in(rel)

    t1, t2 = new_object(t_type), new_object(t_type)
    for index, name in enumerate(sorted(transmitter_members)):
        t1.set_attribute(name, index * 10)
        if index % 2 == 0:
            t2.set_attribute(name, index * 10 + 1)
    inh = new_object(i_type)
    if set_locals and not (bind_a or bind_b):
        for index, name in enumerate(sorted(perm_a | perm_b)):
            inh._attrs[name] = index * 100
    if bind_a:
        bind(inh, t1, rel_a)
    if bind_b:
        bind(inh, t2, rel_b)

    for obj in (inh, t1, t2):
        try:
            expected_value = resolution.naive_get_member(obj, probe)
        except Exception as exc:  # noqa: BLE001 - re-asserted exactly
            with pytest.raises(type(exc)) as caught:
                explain_value(obj, probe)
            assert str(caught.value) == str(exc)
            continue
        prov = explain_value(obj, probe)
        assert prov.value == expected_value
        assert prov.chain() == resolution.naive_resolution_chain(obj, probe)
        assert prov.holder is prov.chain()[-1]
        assert prov.hops == len(prov.chain()) - 1


# ---------------------------------------------------------------------------
# schema goldens: repro.audit/1 and repro.metrics/1
# ---------------------------------------------------------------------------


class TestSchemaGoldens:
    def test_audit_snapshot_shape(self, db):
        iface = make_interface(db)
        make_implementation(db, iface)
        iface.set_attribute("Length", 3)
        snap = audit_snapshot(db)
        assert snap["schema"] == AUDIT_SCHEMA_VERSION == "repro.audit/1"
        assert set(snap) == {"schema", "database", "appended", "records", "cones"}
        assert snap["appended"] == db.obs.audit.appended
        for record in snap["records"]:
            assert set(record) == {
                "seq", "ts", "kind", "subject", "cause", "trace", "detail",
            }
        for cone in snap["cones"]:
            assert set(cone) == {
                "trace", "root", "records", "breadth", "depth",
                "by_rel_type", "members", "wall_time",
            }
        json.dumps(snap)  # the whole snapshot is JSON-safe

    def test_audit_snapshot_filters(self, db):
        iface = make_interface(db)
        make_implementation(db, iface)
        iface.set_attribute("Length", 3)
        by_kind = audit_snapshot(db, kind="propagation.fanout")
        assert by_kind["records"]
        assert all(
            r["kind"] == "propagation.fanout" for r in by_kind["records"]
        )
        trace = by_kind["records"][0]["trace"]
        by_trace = audit_snapshot(db, trace=trace)
        assert all(r["trace"] == trace for r in by_trace["records"])
        assert [c["trace"] for c in by_trace["cones"]] == [trace]

    def test_audit_table_renders_cones(self, db):
        iface = make_interface(db)
        make_implementation(db, iface)
        iface.set_attribute("Length", 3)
        text = render_audit_table(audit_snapshot(db))
        assert "audit log" in text
        assert "propagation.fanout" in text
        assert "cone" in text

    def test_metrics_event_summary_gains_causal_keys(self, db):
        from repro.obs.report import snapshot

        iface = make_interface(db)
        iface.set_attribute("Length", 3)
        snap = snapshot(db)
        assert snap["schema"] == "repro.metrics/1"
        events = snap["events"]["recent"]
        assert any(event["kind"] == "attribute_updated" for event in events)
        for event in events:
            assert set(event) == {
                "kind", "subject", "data", "seq", "ts", "cause", "trace",
            }
            # The maintainer's cone rides on the event, not in its payload.
            assert "cone" not in event["data"]
        assert "Cone object" not in json.dumps(snap)

    def test_snapshot_without_audit_raises_repro_error(self):
        db = Database("noaudit")
        db.enable_observability(audit=False)
        with pytest.raises(ReproError):
            audit_snapshot(db)
