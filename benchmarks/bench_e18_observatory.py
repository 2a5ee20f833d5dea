"""E18 — the observatory's own tax: profiler and slow-log overhead.

The perf-observatory contract (this PR): every observability surface must
be zero-cost when disabled and cheap when enabled but quiet.  E18 prices
the two new surfaces:

* **sampling profiler** — E14's deep-chain reads (depth 8) with and
  without a 1 kHz :class:`~repro.obs.profiler.SamplingProfiler` attached.
  Sampling happens on a background thread; the profiled thread pays only
  ~1000 brief GIL handoffs per second, so the min/median tax target is
  near zero on a read-dominated loop (the mean absorbs the sampling
  pauses themselves, which is environment-dependent);
* **slow-operation log** — the Figure-2 update workload in four regimes:
  observability off (``slowlog_dark``, the one-load-one-branch floor),
  observability on with the slow log detached (``slowlog_detached``),
  attached but quiet (``slowlog_quiet``: two ``perf_counter`` reads per
  measured propagation, nothing recorded), and attached with a zero
  budget (``slowlog_firing``: every update builds its cone diagnosis and
  is counted; with the audit log off, as here, no record is kept).

Reads are batched (``BATCH`` per timed call) so the profiler's
start/stop thread lifecycle — paid once per measurement in the harness
adapter — is amortised below the effect being measured.
"""

import time

from repro.obs.profiler import SamplingProfiler
from repro.workloads import gate_database, make_implementation, make_interface

from benchmarks.bench_e14_resolution import build_chain

BATCH = 5_000
FANOUT = 10


def deep_read_batch(prefix, batch=BATCH):
    """A thunk running ``batch`` warmed depth-8 inherited reads."""
    _top, bottom = build_chain(8, prefix)
    read = bottom.get_member
    assert read("V") == 42  # warm plan + holder memo
    indices = range(batch)

    def run():
        for _ in indices:
            read("V")

    return run


def _setup(observe, slowlog=True, budgets=None):
    db = gate_database("e18-bench")
    if observe:
        db.enable_observability(
            tracing=False, audit=False, slowlog=slowlog, slow_budgets=budgets
        )
    iface = make_interface(db)
    for _ in range(FANOUT):
        make_implementation(db, iface)
    return db, iface


class TestProfilerTax:
    def test_reads_unprofiled(self, benchmark):
        """The baseline: BATCH deep-chain reads, no sampler attached."""
        benchmark(deep_read_batch("E18B"))

    def test_reads_profiled_1khz(self, benchmark):
        """Same loop with the 1 kHz sampler on: the GIL-handoff tax."""
        run = deep_read_batch("E18P")
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        try:
            benchmark(run)
            # Under --benchmark-disable the loop runs once (~1ms), too
            # short for a 1kHz sampler: keep reading until it lands one.
            deadline = time.perf_counter() + 2.0
            while profiler.samples == 0 and time.perf_counter() < deadline:
                run()
        finally:
            profiler.stop()
        # The sampler really watched the loop, and saw the hot frames.
        assert profiler.samples > 0


class TestSlowlogTax:
    def test_update_slowlog_dark(self, benchmark):
        """Observe off: the slowlog guards must stay one load + branch."""
        db, iface = _setup(observe=False)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", 10 + next(counter) % 50))
        assert db.obs is None

    def test_update_slowlog_detached(self, benchmark):
        """Observe on, slow log off: the pre-PR-6 measurement baseline."""
        db, iface = _setup(observe=True, slowlog=False)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", 10 + next(counter) % 50))
        assert db.obs.slowlog is None

    def test_update_slowlog_quiet(self, benchmark):
        """Attached but under budget: two clock reads, nothing recorded."""
        db, iface = _setup(observe=True, slowlog=True)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", 10 + next(counter) % 50))
        assert db.obs.slowlog is not None
        assert db.obs.slowlog.recorded == 0

    def test_update_slowlog_firing(self, benchmark):
        """Zero budget: every propagation records its diagnosis."""
        db, iface = _setup(
            observe=True, slowlog=True, budgets={"propagation": 0.0}
        )
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", 10 + next(counter) % 50))
        # audit=False: the slow log counts every overrun and keeps none.
        slowlog = db.obs.slowlog
        assert slowlog.recorded > 0
        assert db.obs.metrics.value("slowlog.propagation") == slowlog.recorded
        assert slowlog.operations() == []


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    batch = 1_000 if suite.quick else BATCH

    @suite.case(f"reads_unprofiled[{batch}]")
    def base_case():
        return deep_read_batch("E18HB", batch)

    @suite.case(f"reads_profiled_1khz[{batch}]")
    def profiled_case():
        run = deep_read_batch("E18HP", batch)
        profiler = SamplingProfiler(interval=0.001)

        def timed():
            # Start/stop inside the measurement: ~0.2ms of thread
            # lifecycle amortised over the batch of reads.
            with profiler:
                run()

        return timed

    @suite.case("update_slowlog_dark")
    def dark_case():
        db, iface = _setup(observe=False)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

    @suite.case("update_slowlog_detached")
    def detached_case():
        db, iface = _setup(observe=True, slowlog=False)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

    @suite.case("update_slowlog_quiet")
    def quiet_case():
        db, iface = _setup(observe=True, slowlog=True)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

    @suite.case("update_slowlog_firing")
    def firing_case():
        db, iface = _setup(
            observe=True, slowlog=True, budgets={"propagation": 0.0}
        )
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)
