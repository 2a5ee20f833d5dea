"""E22 — pricing the race sanitizer, and proving the dark path is free.

The PR-10 sanitizer instruments every hot mutation site (TypeStore
writes, view/index maintenance, epoch bumps, the lock table) behind a
module-level ``TSAN`` guard.  The zero-cost-dark contract is the whole
design: when the guard is ``None`` the only cost is one global load and
one ``is None`` test, so production never pays for the instrumentation.
This experiment prices both sides:

* **update dark / update sanitized** — the Figure-2 propagation loop
  with the guard dark vs. inside :func:`repro.obs.race.sandbox`.  The
  sanitized path captures a stack per shadow access, so a 10–100x factor
  is expected and acceptable; what matters is the *dark* number, which
  ``repro bench --compare`` holds to the BENCH_0004 baseline (the E14–E21
  suites run with the guard dark too, so the whole trajectory gates the
  parity claim);
* **lock round-trip dark / sanitized** — one uncontended
  ``acquire``/``release_all`` pair: the lock table is the chattiest
  instrumented site (state write + HB edge per grant and release);
* **contended grant sanitized** — E21's blocking round under the
  sanitizer: parked waiters, waits-for edges, fork/join HB patching and
  all — the worst realistic case, and it must stay race-free.

The acceptance tests additionally assert the dark guard really is dark
(enable→disable leaves the modules with ``TSAN is None`` and the same
min-of-k cost within noise) and that the sanitized runs observed
accesses without reporting races.
"""

from repro.engine import Database
from repro.obs import race
from repro.obs.bench import alternating_best
from repro.txn import LockMode, LockTable
from repro.workloads import gate_database, make_implementation, make_interface

from benchmarks.bench_e21_contention import run_contention_round

FANOUT = 10
UPDATES = 200


def _workload_db(name="e22-bench"):
    db = gate_database(name)
    iface = make_interface(db)
    for _ in range(FANOUT):
        make_implementation(db, iface)
    return db, iface


def _update_batch(iface, counter):
    def run():
        for _ in range(UPDATES):
            iface.set_attribute("Length", 10 + next(counter) % 50)
    return run


def _lock_roundtrip(table, surrogate):
    def run():
        for txn in range(50):
            table.acquire(txn, surrogate, LockMode.X, wait=True, timeout=10.0)
            table.release_all(txn)
    return run


class TestDarkPathParity:
    def test_guard_is_restored_after_enable_disable(self):
        from repro.core import resolution, slots
        from repro.query import indexes, views
        from repro.txn import locks as locks_mod

        modules = (slots, resolution, views, indexes, locks_mod)
        previous = race.active()
        with race.sandbox():
            assert all(m.TSAN is not None for m in modules)
        assert all(m.TSAN is previous for m in modules)

    def test_dark_cost_unchanged_by_past_enablement(self):
        """Enable→disable must leave the hot path at its original cost.

        Min-of-7 before the sandbox and after it, with a generous 3x
        bound: this guards against the sanitizer leaving patched code or
        live guards behind, not against scheduler noise.  The two sides
        cannot alternate: everything the sandbox installs is
        process-global, so a leftover would slow both alike.
        """
        if race.active() is not None:
            return  # REPRO_TSAN session: there is no dark path to price
        _db, iface = _workload_db("e22-before")
        [before] = alternating_best(
            [_update_batch(iface, iter(range(10**9)))], rounds=7
        )
        with race.sandbox():
            _db2, iface2 = _workload_db("e22-during")
            _update_batch(iface2, iter(range(10**9)))()
        _db3, iface3 = _workload_db("e22-after")
        [after] = alternating_best(
            [_update_batch(iface3, iter(range(10**9)))], rounds=7
        )
        assert after < before * 3.0 + 1e-4

    def test_sanitized_updates_observe_and_stay_clean(self):
        with race.sandbox() as sanitizer:
            _db, iface = _workload_db("e22-sanitized")
            _update_batch(iface, iter(range(10**9)))()
            assert sanitizer.accesses > 0
            assert sanitizer.reports == []

    def test_sanitized_lock_table_stays_clean(self):
        with race.sandbox() as sanitizer:
            db = Database("e22-locks")
            table = LockTable()
            _lock_roundtrip(table, db.surrogates.fresh())()
            assert sanitizer.syncs > 0
            assert sanitizer.reports == []

    def test_contended_round_under_sanitizer_is_race_free(self):
        with race.sandbox() as sanitizer:
            db = Database("e22-contended", observe=True)
            table = LockTable(obs=db.obs)
            run_contention_round(
                table, db.surrogates.fresh(), waiters=2, hold=0.002
            )
            assert sanitizer.reports == []


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    waiters = 2 if suite.quick else 4

    @suite.case("update_dark")
    def update_dark_case():
        _db, iface = _workload_db("e22-dark")
        return _update_batch(iface, iter(range(10**9)))

    @suite.case("update_sanitized")
    def update_sanitized_case():
        # The sandbox must wrap the *timed* call, not just setup: enter
        # per invocation so the run prices guard checks + shadow lookups.
        _db, iface = _workload_db("e22-san")
        counter = iter(range(10**9))

        def timed():
            with race.sandbox():
                _update_batch(iface, counter)()

        return timed

    @suite.case("lock_roundtrip_dark")
    def lock_dark_case():
        db = Database("e22-lock-dark")
        table = LockTable()
        return _lock_roundtrip(table, db.surrogates.fresh())

    @suite.case("lock_roundtrip_sanitized")
    def lock_sanitized_case():
        db = Database("e22-lock-san")
        table = LockTable()
        surrogate = db.surrogates.fresh()

        def timed():
            with race.sandbox():
                _lock_roundtrip(table, surrogate)()

        return timed

    @suite.case(f"contended_grant_sanitized[{waiters}]")
    def contended_case():
        db = Database("e22-contended-bench", observe=True)
        table = LockTable(obs=db.obs)
        surrogates = db.surrogates

        def timed():
            with race.sandbox():
                run_contention_round(
                    table, surrogates.fresh(), waiters=waiters, hold=0.002
                )

        return timed
