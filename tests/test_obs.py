"""Tests for the observability layer (repro.obs)."""

import copy
import json
import time

import pytest

from repro.engine import Database, save
from repro.engine.events import Event, EventBus
from repro.obs import (
    FANOUT_BUCKETS,
    EventTap,
    Histogram,
    MetricsRegistry,
    Observability,
    RESERVOIR_SIZE,
    Tracer,
    exercise,
    format_span_tree,
    maybe_span,
    render_table,
    snapshot,
)
from repro.obs.report import SCHEMA_VERSION, derived_stats
from repro.workloads import gate_database, make_implementation, make_interface


def observed_gate_database(name="obs-test", **options):
    db = gate_database(name)
    db.enable_observability(**options)
    return db


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner_a", "inner_b"]
        assert outer.children[1].children[0].name == "leaf"
        assert outer.children[1].children[0].parent is outer.children[1]

    def test_span_timing(self):
        tracer = Tracer()
        with tracer.span("timed"):
            time.sleep(0.01)
        span = tracer.roots[0]
        assert span.duration is not None
        assert span.duration >= 0.009
        # The parent's duration covers its children.
        with tracer.span("parent"):
            with tracer.span("child"):
                time.sleep(0.005)
        parent = tracer.roots[1]
        assert parent.duration >= parent.children[0].duration

    def test_disabled_tracer_is_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span_a = tracer.span("a", attr=1)
        span_b = tracer.span("b")
        assert span_a is span_b  # shared singleton, no allocation
        with span_a:
            pass
        assert len(tracer) == 0
        assert tracer.roots == []

    def test_max_spans_drops_but_keeps_timing_balance(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped == 3
        assert tracer._stack == []

    def test_attributes_and_error_flag(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", n=3) as span:
                span.set(extra="yes")
                raise ValueError("x")
        span = tracer.roots[0]
        assert span.attributes["n"] == 3
        assert span.attributes["extra"] == "yes"
        assert span.attributes["error"] == "ValueError"

    def test_find_and_format(self):
        tracer = Tracer()
        with tracer.span("load", objects=2):
            with tracer.span("decode"):
                pass
        assert [span.name for span in tracer.all_spans()] == ["load", "decode"]
        assert len(tracer.find("decode")) == 1
        text = format_span_tree(tracer)
        assert "load" in text
        assert "\n  decode" in text  # indented child

    def test_maybe_span_with_none(self):
        with maybe_span(None, "anything"):
            pass  # no observability attached: no-op


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(2)
        assert registry.value("a") == 5
        assert registry.value("g") == 5
        assert registry.value("missing", default=-1) == -1

    def test_histogram_bucket_edges(self):
        hist = Histogram("h", bounds=(1, 10, 100))
        # Edges are inclusive upper bounds: value == bound lands in it.
        for value in (0, 1):
            hist.observe(value)
        hist.observe(2)
        hist.observe(10)
        hist.observe(11)
        hist.observe(100)
        hist.observe(101)  # overflow
        assert hist.bucket_counts == [2, 2, 2]
        assert hist.overflow == 1
        assert hist.count == 7
        assert hist.min == 0 and hist.max == 101
        assert hist.sum == 225
        exported = hist.as_dict()
        assert [bucket["le"] for bucket in exported["buckets"]] == [1, 10, 100]
        assert exported["inf"] == 1
        assert exported["mean"] == pytest.approx(225 / 7)

    def test_histogram_percentiles_exact_below_reservoir(self):
        hist = Histogram("h", bounds=(1000,))
        for value in range(1, 101):  # 1..100, well under RESERVOIR_SIZE
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(95) == pytest.approx(95.05)
        exported = hist.as_dict()
        assert exported["p50"] == pytest.approx(50.5)
        assert exported["p99"] == pytest.approx(99.01)
        assert exported["sampled"] == 100

    def test_histogram_percentile_edge_cases(self):
        hist = Histogram("h", bounds=(1,))
        assert hist.percentile(50) is None  # no observations
        hist.observe(7)
        assert hist.percentile(0) == 7 == hist.percentile(100)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_histogram_reservoir_bounded_and_representative(self):
        hist = Histogram("h", bounds=(10**7,))
        n = 4 * RESERVOIR_SIZE
        for value in range(n):
            hist.observe(value)
        # The reservoir never outgrows its bound even for 4x the traffic,
        # and the uniform sample keeps the median estimate near truth.
        assert len(hist.reservoir) == RESERVOIR_SIZE
        assert hist.count == n
        assert hist.percentile(50) == pytest.approx(n / 2, rel=0.15)
        # Seeded RNG: the same stream always yields the same sample.
        twin = Histogram("h", bounds=(10**7,))
        for value in range(n):
            twin.observe(value)
        assert twin.reservoir == hist.reservoir

    def test_histogram_bounds_sorted_and_nonempty(self):
        hist = Histogram("h", bounds=(100, 1, 10))
        assert hist.bounds == (1, 10, 100)
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_name_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h", bounds=(1,)).observe(1)
        data = registry.as_dict()
        assert set(data) == {"counters", "gauges", "histograms"}
        assert data["counters"] == {"c": 1}
        assert json.dumps(data)  # JSON-serialisable


# ---------------------------------------------------------------------------
# the event tap and propagation measurement
# ---------------------------------------------------------------------------

class TestEventTap:
    def test_scripted_propagation_scenario(self):
        """Counts checked against a hand-built interface hierarchy."""
        db = observed_gate_database()
        metrics = db.obs.metrics
        iface = make_interface(db)
        impls = [make_implementation(db, iface) for _ in range(3)]

        assert metrics.value("events.object_created") == 1 + 3
        assert metrics.value("inheritance.bound.AllOf_GateInterface") == 3

        metrics.reset()  # drop the construction-time attribute_updated noise
        iface.set_attribute("Length", 42)  # fans out to the 3 implementations
        assert metrics.value("propagation.updates") == 1
        assert metrics.value("propagation.fanout_total") == 3
        assert metrics.value("propagation.by_rel_type.AllOf_GateInterface") == 3

        impls[0].set_attribute("TimeBehavior", 9)  # local member: fan-out 0
        assert metrics.value("propagation.updates") == 2
        assert metrics.value("propagation.fanout_total") == 3
        fanout = metrics.histogram("propagation.fanout", FANOUT_BUCKETS)
        assert fanout.count == 2
        assert fanout.max == 3 and fanout.min == 0
        assert metrics.value("propagation.updates_with_inheritors") == 1

        link = impls[1].inheritance_links[0]
        link.unbind()
        assert metrics.value("inheritance.unbound.AllOf_GateInterface") == 1
        iface.set_attribute("Length", 43)
        assert metrics.value("propagation.fanout_total") == 3 + 2

    def test_event_kind_counters_and_ring(self):
        # The tap counts every event; the audit ring is what keeps them.
        db = observed_gate_database(audit_ring=4)
        iface = make_interface(db, n_in=1, n_out=1)
        audit = db.obs.audit
        assert db.obs.metrics.value("events.subobject_added") == 2
        assert len(audit.events()) == 4  # ring capped
        kinds = {event.kind for event in audit.events()}
        assert kinds <= {"object_created", "subobject_added", "attribute_updated"}
        added = [e for e in audit.events() if e.kind == "subobject_added"]
        assert added[-1].subject is iface
        assert not hasattr(db.obs.tap, "ring")

    def test_snapshot_events_are_the_audit_rings_bus_events(self):
        db = gate_database("one-stream", record_events=True)
        db.enable_observability()
        iface = make_interface(db)
        make_implementation(db, iface)
        iface.set_attribute("Length", 12)
        emitted = db.events.history
        assert any(event.cone is not None for event in emitted)
        events = snapshot(db)["events"]
        assert events["ring_size"] == db.obs.audit.ring.maxlen
        recent = events["recent"]
        assert [(e["seq"], e["kind"]) for e in recent] == [
            (event.seq, event.kind) for event in emitted
        ]
        assert [e["seq"] for e in recent] == [
            event.seq for event in db.obs.audit.events()
        ]
        for entry in recent:
            assert "cone" not in entry and "cone" not in entry["data"]

    def test_snapshot_without_audit_has_no_recent_events(self):
        db = observed_gate_database(audit=False)
        make_interface(db)
        assert db.obs.metrics.value("events.object_created") >= 1
        assert snapshot(db)["events"] == {"ring_size": 0, "recent": []}

    def test_observe_false_adds_zero_subscriptions(self):
        db = gate_database("unobserved")
        assert db.obs is None
        handler_count = sum(len(v) for v in db.events._handlers.values())
        assert handler_count == 0

    def test_observe_true_adds_exactly_one_subscription(self):
        db = observed_gate_database()
        handler_count = sum(len(v) for v in db.events._handlers.values())
        assert handler_count == 1
        db.disable_observability()
        assert db.obs is None
        handler_count = sum(len(v) for v in db.events._handlers.values())
        assert handler_count == 0

    def test_detach_stops_counting(self):
        db = observed_gate_database()
        obs = db.obs
        iface = make_interface(db)
        before = obs.metrics.value("propagation.updates", 0)
        db.disable_observability()
        iface.set_attribute("Length", 77)
        assert obs.metrics.value("propagation.updates", 0) == before


# ---------------------------------------------------------------------------
# instrumented engine paths
# ---------------------------------------------------------------------------

class TestInstrumentedPaths:
    def test_inherited_read_counter_counts_hops(self):
        db = observed_gate_database()
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        before = db.obs.metrics.value("reads.inherited", 0)
        impl.get_member("Length")
        assert db.obs.metrics.value("reads.inherited") == before + 1
        impl.get_member("TimeBehavior")  # local: uncounted
        assert db.obs.metrics.value("reads.inherited") == before + 1

    def test_bind_span_recorded(self):
        db = observed_gate_database()
        iface = make_interface(db)
        make_implementation(db, iface)
        spans = db.obs.tracer.find("inheritance.bind")
        assert spans and spans[0].attributes["rel_type"] == "AllOf_GateInterface"

    def test_query_metrics_and_span(self):
        db = observed_gate_database()
        make_interface(db, length=10)
        make_interface(db, length=99)
        result = db.query("select * from GateInterface where Length > 50")
        assert len(result) == 1
        metrics = db.obs.metrics
        assert metrics.value("query.executed") == 1
        assert metrics.value("query.rows_scanned") == 2
        assert metrics.value("query.rows_matched") == 1
        span = db.obs.tracer.find("query.execute")[0]
        assert span.attributes["rows"] == 1

    def test_lock_metrics(self):
        from repro.errors import LockConflictError
        from repro.txn import TransactionManager

        db = observed_gate_database()
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        manager = TransactionManager(db)
        reader = manager.begin()
        reader.read(impl, {"Length"})  # + inherited lock on the interface
        metrics = db.obs.metrics
        assert metrics.value("locks.acquired") >= 2
        assert metrics.value("locks.inherited_plans") >= 1
        writer = manager.begin()
        with pytest.raises(LockConflictError):
            writer.write(iface, {"Length"})
        assert metrics.value("locks.conflicts") == 1
        reader.commit()
        assert metrics.value("txn.committed") == 1
        assert metrics.value("locks.released") >= 2

    def test_persistence_metrics(self, tmp_path):
        db = observed_gate_database()
        make_interface(db)
        path = tmp_path / "image.json"
        save(db, str(path))
        assert db.obs.metrics.value("persistence.dumps") == 1
        assert db.obs.metrics.value("persistence.objects_dumped") == db.count()
        assert db.obs.tracer.find("persistence.dump")

    def test_expand_metrics(self):
        from repro.composition import add_component
        from repro.composition.composite import expand

        db = observed_gate_database()
        component = make_interface(db)
        composite = make_implementation(db, make_interface(db))
        add_component(composite, "SubGates", component,
                      GateLocation={"X": 0, "Y": 0})
        expansion = expand(composite)
        metrics = db.obs.metrics
        assert metrics.value("composition.expansions") == 1
        hist = metrics.histogram("composition.expansion_size")
        assert hist.count == 1 and hist.max == len(expansion.objects)


# ---------------------------------------------------------------------------
# snapshot / report / exercise
# ---------------------------------------------------------------------------

class TestReport:
    def test_snapshot_schema(self):
        db = observed_gate_database()
        make_interface(db)
        snap = snapshot(db)
        assert snap["schema"] == SCHEMA_VERSION
        assert snap["database"] == "obs-test"
        assert snap["objects"] == db.count()
        assert set(snap) >= {"counters", "gauges", "histograms", "events"}
        assert snap["counters"]["events.object_created"] >= 1
        assert json.dumps(snap)  # fully JSON-serialisable

    def test_snapshot_requires_observability(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            snapshot(gate_database("plain"))

    def test_render_table(self):
        db = observed_gate_database()
        iface = make_interface(db)
        iface.set_attribute("Length", 12)
        text = render_table(snapshot(db))
        assert "events.attribute_updated" in text
        assert "propagation.fanout" in text
        assert "recent events" in text

    def test_exercise_produces_core_metrics(self):
        db = observed_gate_database()
        iface = make_interface(db)
        make_implementation(db, iface)
        exercise(db)
        stats = derived_stats(snapshot(db))
        assert stats["propagation_updates"] > 0
        assert stats["lock_acquisitions"] > 0
        assert stats["propagation_fanout_total"] > 0
        assert stats["inherited_reads"] > 0

    def test_exercise_does_not_change_values(self):
        db = observed_gate_database()
        iface = make_interface(db, length=10)
        impl = make_implementation(db, iface)
        exercise(db)
        assert iface["Length"] == 10
        assert impl["Length"] == 10


# ---------------------------------------------------------------------------
# Database plumbing and the Event dunder fix
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_observe_flag_and_idempotent_enable(self):
        db = Database("flagged", observe=True)
        assert isinstance(db.obs, Observability)
        assert db.enable_observability() is db.obs

    def test_event_dunder_lookup_raises_attribute_error(self):
        event = Event("attribute_updated", subject=None, data={"attribute": "x"})
        with pytest.raises(AttributeError):
            event.__deepcopy__
        with pytest.raises(AttributeError):
            event.__copy__
        assert event.attribute == "x"
        with pytest.raises(AttributeError):
            event.missing_key

    def test_event_survives_deepcopy(self):
        event = Event("k", subject=None, data={"a": 1}, seq=3)
        clone = copy.deepcopy(event)
        assert clone.kind == "k" and clone.a == 1 and clone.seq == 3

    def test_tap_on_plain_bus(self):
        bus = EventBus()
        registry = MetricsRegistry()
        tap = EventTap(bus, registry)
        bus.emit("custom_kind", subject=None, payload=1)
        assert registry.value("events.custom_kind") == 1
        tap.detach()
        bus.emit("custom_kind", subject=None)
        assert registry.value("events.custom_kind") == 1

    def test_update_without_a_cone_is_counted_not_measured(self):
        # Fan-out is read off the maintainer's cone only; an update
        # emitted by hand carries none, and the tap walks nothing itself.
        bus = EventBus()
        registry = MetricsRegistry()
        EventTap(bus, registry)
        bus.emit("attribute_updated", subject=object(), attribute="x")
        assert registry.value("propagation.updates") == 1
        assert registry.value("propagation.fanout_total") is None
        assert "propagation.fanout" not in registry.as_dict()["histograms"]
