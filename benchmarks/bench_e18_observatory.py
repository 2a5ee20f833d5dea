"""E18 — the observatory's own tax: profiler and slow-log overhead.

The perf-observatory contract (this PR): every observability surface must
be zero-cost when disabled and cheap when enabled but quiet.  E18 prices
the two new surfaces:

* **sampling profiler** — E14's deep-chain reads (depth 8) with and
  without a 1 kHz :class:`~repro.obs.profiler.SamplingProfiler` started
  and stopped around each timed call.  A ``reads_profiled_1khz`` batch
  ends before the first 1 ms sampling interval, so no sample lands in it:
  that row prices the sampler thread's start and stop.
  ``reads_sampled_1khz`` times about 14 sampling intervals of reads under
  one start and stop, so samples land in every call and the row prices
  sampling itself (compare it per read with ``reads_unprofiled``);
* **slow-operation log** — the Figure-2 update workload in four regimes:
  observability off (``slowlog_dark``, the one-load-one-branch floor),
  observability on with the slow log detached (``slowlog_detached``),
  attached but quiet (``slowlog_quiet``: two ``perf_counter`` reads per
  measured propagation, nothing recorded), and attached with a zero
  budget (``slowlog_firing``: every update builds its cone diagnosis and
  is counted; with the audit log off, as here, no record is kept).
"""

import threading
import time

from repro.obs.profiler import SamplingProfiler
from repro.workloads import gate_database, make_implementation, make_interface

from benchmarks.bench_e14_resolution import build_chain

BATCH = 5_000
FANOUT = 10
#: Reads per ``reads_sampled_1khz`` call: about 14 ms here, so the 1 kHz
#: sampler lands samples in every call.
SAMPLED_READS = 100_000


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


def updater(iface):
    counter = iter(range(10**9))

    def update():
        iface.set_attribute("Length", 10 + next(counter) % 50)

    update()
    return update


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    batch = 1_000 if suite.quick else BATCH

    @suite.case(f"reads_unprofiled[{batch}]")
    def base_case():
        """The baseline: ``batch`` deep-chain reads, no sampler attached."""
        return deep_read_batch("E18HB", batch)

    @suite.case(f"reads_profiled_1khz[{batch}]")
    def profiled_case():
        """Same loop inside one start and stop of the 1 kHz sampler."""
        run = deep_read_batch("E18HP", batch)
        profiler = SamplingProfiler(interval=0.001)

        def timed():
            # Start/stop inside the measurement: the batch ends before
            # the first sampling interval, so this prices the lifecycle.
            with profiler:
                run()

        # The sampler must really watch the loop: keep reading under one
        # start until it lands a sample (one batch is shorter than the
        # first sampling interval).
        deadline = time.perf_counter() + 2.0
        with profiler:
            while profiler.samples == 0 and time.perf_counter() < deadline:
                run()
        assert profiler.samples > 0
        return timed

    @suite.case(f"reads_sampled_1khz[{SAMPLED_READS}]")
    def sampled_case():
        """``SAMPLED_READS`` reads inside one start and stop of the 1 kHz
        sampler: the call spans many sampling intervals, so samples land
        in it and the start and stop is a small part of its cost."""
        run = deep_read_batch("E18HS", SAMPLED_READS)
        profiler = SamplingProfiler(interval=0.001)

        def timed():
            with profiler:
                run()

        landed = []
        for _ in range(5):
            before = profiler.samples
            timed()
            landed.append(profiler.samples - before)
            if landed[-1]:
                break
        assert landed[-1] > 0, f"no sample landed in a timed call: {landed}"
        assert not any(
            thread.name == "repro-profiler" for thread in threading.enumerate()
        ), "a sampler thread outlived its timed call"
        return timed

    @suite.case("update_slowlog_dark")
    def dark_case():
        """Observe off: the slowlog guards must stay one load + branch."""
        db, iface = _setup(observe=False)
        assert db.obs is None
        return updater(iface)

    @suite.case("update_slowlog_detached")
    def detached_case():
        """Observe on, slow log off: the measurement baseline."""
        db, iface = _setup(observe=True, slowlog=False)
        assert db.obs.slowlog is None
        return updater(iface)

    @suite.case("update_slowlog_quiet")
    def quiet_case():
        """Attached but under budget: two clock reads, nothing recorded."""
        db, iface = _setup(observe=True, slowlog=True)
        update = updater(iface)
        assert db.obs.slowlog is not None and db.obs.slowlog.recorded == 0
        return update

    @suite.case("update_slowlog_firing")
    def firing_case():
        """Zero budget: every propagation records its diagnosis."""
        db, iface = _setup(observe=True, slowlog=True, budgets={"propagation": 0.0})
        update = updater(iface)
        # audit=False: the slow log counts every overrun and keeps none.
        slowlog = db.obs.slowlog
        assert slowlog.recorded > 0
        assert db.obs.metrics.value("slowlog.propagation") == slowlog.recorded
        assert slowlog.operations() == []
        return update
