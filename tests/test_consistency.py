"""Tests for adaptation tracking and triggers (repro.consistency)."""

import pytest

from repro.composition import add_component
from repro.consistency import (
    AdaptationTracker,
    TriggerRegistry,
    auto_adapt_trigger,
)
from repro.ddl.paper import load_gate_schema
from repro.engine import Database
from repro.errors import ReproError


@pytest.fixture
def db():
    db = Database("consistency")
    load_gate_schema(db.catalog)
    return db


@pytest.fixture
def tracker(db):
    return AdaptationTracker(db)


def make_pair(db):
    iface = db.create_object("GateInterface", Length=10, Width=5)
    iface.subclass("Pins").create(InOut="IN")
    impl = db.create_object("GateImplementation", transmitter=iface)
    return iface, impl


class TestAdaptationTracker:
    def test_attaches_to_database(self, db, tracker):
        assert db.consistency is tracker

    def test_transmitter_update_marks_link(self, db, tracker):
        iface, impl = make_pair(db)
        link = impl.inheritance_links[0]
        assert not tracker.needs_adaptation(link)
        iface.set_attribute("Length", 11)
        assert tracker.needs_adaptation(link)
        records = tracker.pending(link)
        assert records[0].member == "Length"
        assert records[0].old == 10 and records[0].new == 11

    def test_non_permeable_update_not_marked(self, db, tracker):
        iface, impl = make_pair(db)
        impl.set_attribute("TimeBehavior", 3)  # inheritor's own data
        assert not tracker.needs_adaptation(impl.inheritance_links[0])

    def test_all_implementations_marked(self, db, tracker):
        iface = db.create_object("GateInterface", Length=1, Width=1)
        impls = [
            db.create_object("GateImplementation", transmitter=iface)
            for _ in range(3)
        ]
        iface.set_attribute("Width", 2)
        worklist = tracker.inheritors_needing_adaptation()
        assert {o.surrogate for o in worklist} == {i.surrogate for i in impls}

    def test_subobject_change_marks_subclass_member(self, db, tracker):
        iface, impl = make_pair(db)
        iface.subclass("Pins").create(InOut="OUT")
        records = tracker.pending(impl)
        assert any(
            r.member == "Pins" and r.kind == "subobject_added" for r in records
        )

    def test_nested_subobject_update_bubbles_to_subclass_name(self, db, tracker):
        iface, impl = make_pair(db)
        pin = iface.subclass("Pins").members()[0]
        pin.set_attribute("PinLocation", (5, 5))
        records = tracker.pending(impl)
        assert any(r.member == "Pins" and r.kind == "subobject_updated" for r in records)

    def test_component_update_marks_composite_slot(self, db, tracker):
        iface, impl = make_pair(db)
        component_if = db.create_object("GateInterface", Length=3, Width=3)
        sub = add_component(impl, "SubGates", component_if, GateLocation=(0, 0))
        component_if.set_attribute("Length", 4)
        assert tracker.needs_adaptation(sub)
        assert not [
            r for r in tracker.pending(impl) if r.member == "Length"
        ]  # the composite's own interface did not change

    def test_acknowledge_clears_pending(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        iface.set_attribute("Width", 12)
        link = impl.inheritance_links[0]
        assert len(tracker.pending(link)) == 2
        closed = tracker.acknowledge(link)
        assert closed == 2
        assert not tracker.needs_adaptation(link)

    def test_acknowledge_up_to_seq(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        first_seq = tracker.pending(impl)[0].seq
        iface.set_attribute("Width", 12)
        tracker.acknowledge(impl, up_to_seq=first_seq)
        remaining = tracker.pending(impl)
        assert len(remaining) == 1 and remaining[0].member == "Width"

    def test_review_leaves_no_records_behind(self, db, tracker):
        iface, impl = make_pair(db)
        others = [
            db.create_object("GateImplementation", transmitter=iface)
            for _ in range(3)
        ]
        for length in (11, 12, 13):
            iface.set_attribute("Length", length)
        worklist = tracker.inheritors_needing_adaptation()
        assert {o.surrogate for o in worklist} == {
            o.surrogate for o in [impl, *others]
        }
        for inheritor in worklist:
            assert tracker.acknowledge(inheritor) == 3
        assert sum(len(records) for records in tracker._records.values()) == 0
        assert tracker.inheritors_needing_adaptation() == []
        assert not tracker.needs_adaptation(impl)
        iface.set_attribute("Width", 6)
        assert [r.member for r in tracker.pending(impl)] == ["Width"]
        assert tracker.needs_adaptation(impl.inheritance_links[0])

    def test_directly_acknowledged_records_are_dropped(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        iface.set_attribute("Width", 12)
        first, second = tracker.all_pending()
        first.acknowledged = True  # as an auto-adapt trigger does
        assert tracker.pending(impl) == [second]
        assert sum(len(records) for records in tracker._records.values()) == 1

    def test_records_ordered_by_sequence(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        iface.set_attribute("Length", 12)
        seqs = [r.seq for r in tracker.pending(impl)]
        assert seqs == sorted(seqs)

    def test_describe_is_informative(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        text = tracker.pending(impl)[0].describe()
        assert "Length" in text and "AllOf_GateInterface" in text

    def test_detach_stops_tracking(self, db, tracker):
        iface, impl = make_pair(db)
        tracker.detach()
        iface.set_attribute("Length", 99)
        assert not tracker.all_pending()

    def test_clear(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 99)
        tracker.clear()
        assert not tracker.all_pending()


class TestTriggers:
    def test_trigger_fires_on_matching_event(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("log-updates", "attribute_updated", seen.append)
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 1)
        assert len(seen) >= 1
        assert registry.get("log-updates").fired >= 1

    def test_condition_filters(self, db):
        iface, _ = make_pair(db)
        registry = TriggerRegistry(db)
        seen = []
        registry.register(
            "length-only",
            "attribute_updated",
            seen.append,
            condition=lambda e: e.attribute == "Length",
        )
        iface.set_attribute("Width", 9)
        assert seen == []
        iface.set_attribute("Length", 9)
        assert len(seen) == 1

    def test_disable_enable(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("t", "attribute_updated", seen.append)
        registry.disable("t")
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 1)
        assert seen == []
        registry.enable("t")
        iface.set_attribute("Length", 2)
        assert len(seen) == 1

    def test_duplicate_name_rejected(self, db):
        registry = TriggerRegistry(db)
        registry.register("t", "x", lambda e: None)
        with pytest.raises(ReproError):
            registry.register("t", "y", lambda e: None)

    def test_unknown_trigger(self, db):
        registry = TriggerRegistry(db)
        with pytest.raises(ReproError):
            registry.get("nope")

    def test_wildcard_trigger(self, db):
        registry = TriggerRegistry(db)
        kinds = []
        registry.register("all", "*", lambda e: kinds.append(e.kind))
        make_pair(db)
        assert "object_created" in kinds

    def test_remove(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("t", "attribute_updated", seen.append)
        registry.remove("t")
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 5)
        assert seen == []


class TestSemiAutomaticCorrection:
    def test_auto_adapt_acknowledges_correctable_changes(self, db):
        tracker = AdaptationTracker(db)
        registry = TriggerRegistry(db)

        def corrector(record):
            # Width changes are auto-adaptable; Length needs a human.
            return record.member == "Width"

        auto_adapt_trigger(registry, tracker, corrector)
        iface, impl = make_pair(db)
        iface.set_attribute("Width", 50)
        assert not tracker.needs_adaptation(impl)  # auto-corrected
        iface.set_attribute("Length", 50)
        pending = tracker.pending(impl)
        assert len(pending) == 1 and pending[0].member == "Length"
