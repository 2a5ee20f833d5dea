"""E21 — flight-recorder tax and the contention observatory under load.

The service tier (next PR) will keep a recorder ticking and the health
rules evaluating on every live database, so this experiment prices the
new surfaces and proves the contention telemetry works under real
threads:

* **recorder tick** — one :meth:`~repro.obs.recorder.FlightRecorder.tick`
  over a registry populated by the Figure-2 update workload: a full
  registry walk plus histogram percentile summaries, the cost the daemon
  thread pays per interval;
* **dark path** — the recorder is pull-based and subscribes to nothing,
  so engine updates must cost the same whether the ring is empty or full.
  ``update_recorder_idle`` vs ``update_recorder_full_ring`` measures the
  same propagation loop on an observed database with zero buffered
  samples and with the ring at capacity; an acceptance test asserts the
  full-ring path stays within noise of the idle one (min-of-k, generous
  3x bound), and ``update_dark`` is the observability-off floor;
* **contended grant** — one full blocking-lock round: K reader threads
  park behind an exclusive holder (waits-for edges registered, blocked
  events audited), the holder releases, every waiter is granted and the
  wait histogram absorbs K observations.  An acceptance test walks a
  health rule through ok → degraded → ok around the contention burst.
"""

import threading
import time

from repro.engine import Database
from repro.obs.bench import alternating_best
from repro.obs.health import DEGRADED, OK, HealthMonitor, percentile_rule
from repro.txn import LockMode, LockTable
from repro.workloads import gate_database, make_implementation, make_interface

FANOUT = 10
WAITERS = 4
HOLD = 0.08  # long enough that wait p95 crosses the 50ms health threshold


def _workload_db(observe, name="e21-bench"):
    """The Figure-2 update topology: one interface, FANOUT inheritors."""
    db = gate_database(name)
    if observe:
        db.enable_observability(tracing=False, audit=False)
    iface = make_interface(db)
    for _ in range(FANOUT):
        make_implementation(db, iface)
    return db, iface


def _exercised_recorder(ticks=0):
    """An observed db after one update pass, with ``ticks`` samples taken."""
    db, iface = _workload_db(observe=True)
    for i in range(50):
        iface.set_attribute("Length", 10 + i % 50)
    recorder = db.obs.recorder
    for i in range(ticks):
        recorder.tick(now=float(i))
    return db, iface, recorder


def run_contention_round(table, surrogate, waiters=WAITERS, hold=HOLD):
    """One blocking-lock round; returns the waits-for edges seen parked.

    Txn 0 holds X; ``waiters`` reader threads park behind it; after
    ``hold`` seconds the holder releases and every waiter is granted.
    """
    table.acquire(0, surrogate, LockMode.X, origin="write")
    threads = [
        threading.Thread(
            target=table.acquire,
            args=(txn, surrogate, LockMode.S),
            kwargs={"wait": True, "timeout": 30.0, "origin": "read"},
        )
        for txn in range(1, waiters + 1)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10.0
    while table.waiting_count() < waiters and time.monotonic() < deadline:
        time.sleep(0.001)
    edges = table.waits_for()
    time.sleep(hold)
    table.release_all(0)
    for thread in threads:
        thread.join(timeout=30.0)
    for txn in range(1, waiters + 1):
        table.release_all(txn)
    return edges


class TestRecorderTax:
    def test_full_ring_update_within_noise_of_idle(self):
        """The dark-path contract: a full ring must not tax updates.

        The recorder adds no hot-path code, so the same propagation batch
        on the same observed database must cost about the same with 0 and
        with ``capacity`` buffered samples.  Min-of-7, the two sides
        alternating, with a generous 3x bound: this guards against
        accidentally wiring the recorder into the update path, not
        against scheduler noise.
        """
        def batch(iface, counter):
            def run():
                for _ in range(200):
                    iface.set_attribute("Length", 10 + next(counter) % 50)
            return run

        _db, iface, _recorder = _exercised_recorder(ticks=0)
        db2, iface2, recorder2 = _exercised_recorder(ticks=0)
        for i in range(recorder2.capacity):
            recorder2.tick(now=float(i))
        assert len(recorder2) == recorder2.capacity
        idle, full = alternating_best(
            [batch(iface, iter(range(10**9))), batch(iface2, iter(range(10**9)))],
            rounds=7,
        )
        assert full < idle * 3.0 + 1e-4


class TestContentionObservatory:
    def test_contention_round_populates_observatory(self):
        db = Database("e21-contention", observe=True)
        table = LockTable(obs=db.obs)
        edges = run_contention_round(
            table, db.surrogates.fresh(), waiters=WAITERS, hold=HOLD
        )
        # Edges were live while parked and drained with the grants.
        assert edges == {(txn, 0) for txn in range(1, WAITERS + 1)}
        assert table.waits_for() == set()
        metrics = db.obs.metrics
        assert metrics.counter("locks.waits.read").value == WAITERS
        assert metrics.counter("locks.grants_after_wait").value == WAITERS
        histogram = metrics.histogram("locks.wait_seconds")
        assert histogram.count == WAITERS
        assert histogram.percentile(95) >= HOLD * 0.5

    def test_health_walks_ok_degraded_ok(self):
        db = Database("e21-health", observe=True)
        table = LockTable(obs=db.obs)
        recorder = db.obs.recorder
        monitor = HealthMonitor(
            recorder,
            [percentile_rule("lock-wait-p95", "locks.wait_seconds", 0.05)],
        )
        recorder.tick(now=0.0)
        recorder.tick(now=1.0)
        assert monitor.evaluate().status == OK

        run_contention_round(table, db.surrogates.fresh())
        recorder.tick(now=2.0)
        report = monitor.evaluate()
        assert report.status == DEGRADED
        assert "locks.wait_seconds" in report.results[0].reason

        for i in range(6):  # quiet window: the rule clears
            recorder.tick(now=3.0 + i)
        assert monitor.evaluate().status == OK


def updater(iface):
    counter = iter(range(10**9))
    return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    waiters = 2 if suite.quick else WAITERS

    @suite.case("recorder_tick")
    def tick_case():
        """One tick = registry walk + percentile summaries + ring append."""
        _db, _iface, recorder = _exercised_recorder()
        recorder.tick()
        assert recorder.ticks > 0
        return recorder.tick

    @suite.case("update_dark")
    def dark_case():
        """Observability off: the recorder cannot even be reached."""
        db, iface = _workload_db(observe=False)
        assert db.obs is None
        return updater(iface)

    @suite.case("update_recorder_idle")
    def idle_case():
        """Observed update with the ring empty: the recorder's floor."""
        _db, iface, _recorder = _exercised_recorder(ticks=0)
        return updater(iface)

    @suite.case("update_recorder_full_ring")
    def full_ring_case():
        """Observed update with the ring at capacity: must match idle."""
        _db, iface, recorder = _exercised_recorder(ticks=0)
        for i in range(recorder.capacity):
            recorder.tick(now=float(i))
        assert len(recorder) == recorder.capacity
        return updater(iface)

    @suite.case(f"contended_grant[{waiters}]")
    def contention_case():
        """One full blocking round: spawn, park, release, grant, join."""
        db = Database("e21-harness", observe=True)
        table = LockTable(obs=db.obs)
        surrogates = db.surrogates

        def timed():
            # Thread lifecycle is part of the price of a contended grant.
            run_contention_round(
                table, surrogates.fresh(), waiters=waiters, hold=0.002
            )

        timed()
        assert db.obs.metrics.counter("locks.grants_after_wait").value > 0
        return timed
