"""E10 — ablation: the cost of consistency machinery on the update path.

§4.1 hangs adaptation tracking and triggers off transmitter updates; both
run synchronously on the event bus.  This experiment prices that design:
update throughput with (a) a bare database, (b) the adaptation tracker
attached, (c) tracker + a trigger, (d) event recording on — each across a
fan-out of inheritors.
"""

from repro.consistency import AdaptationTracker, TriggerRegistry
from repro.workloads import gate_database, make_implementation, make_interface


def populated(db, n_impls):
    iface = make_interface(db)
    for _ in range(n_impls):
        make_implementation(db, iface)
    return iface


def updater(iface):
    counter = iter(range(10**9))
    return lambda: iface.set_attribute("Length", next(counter) % 500)


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for fanout in [10] if suite.quick else [1, 50]:

        @suite.case(f"bare_update[{fanout}]")
        def bare_case(fanout=fanout):
            return updater(populated(gate_database("e10"), fanout))

        @suite.case(f"update_with_tracker[{fanout}]")
        def tracker_case(fanout=fanout):
            db = gate_database("e10")
            tracker = AdaptationTracker(db)
            update = updater(populated(db, fanout))
            update()
            assert tracker.all_pending()  # the records really accrue
            return update

    for fanout in [10] if suite.quick else [10, 50, 100]:

        @suite.case(f"worklist_scan[{fanout}]")
        def worklist_case(fanout=fanout):
            db = gate_database("e10")
            tracker = AdaptationTracker(db)
            iface = populated(db, fanout)
            for value in range(5):
                iface.set_attribute("Length", value + 1)
            assert len(tracker.inheritors_needing_adaptation()) == fanout
            return tracker.inheritors_needing_adaptation

    if suite.quick:
        return

    for fanout in [1, 50]:

        @suite.case(f"update_with_tracker_and_trigger[{fanout}]")
        def trigger_case(fanout=fanout):
            db = gate_database("e10")
            AdaptationTracker(db)
            fired = []
            TriggerRegistry(db).register(
                "watch",
                "attribute_updated",
                fired.append,
                condition=lambda e: e.attribute == "Length",
            )
            update = updater(populated(db, fanout))
            update()
            assert fired
            return update

    @suite.case("update_with_event_recording")
    def recording_case():
        db = gate_database("e10", record_events=True)
        update = updater(populated(db, 10))
        update()
        assert db.events.history
        return update
