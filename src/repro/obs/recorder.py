"""The flight recorder: a ring of periodic metrics samples.

PR-1 metrics are *one-shot*: ``repro metrics`` freezes the registry after a
workout and everything is a lifetime total.  The service tier needs
**history** — is the conflict rate rising, did the cache hit rate collapse
this minute, what is the lock-wait p95 *now* — so the flight recorder
turns the registry into a time series:

* :meth:`FlightRecorder.tick` freezes one :class:`FlightSample` — counter
  *cumulative values and per-second rates* (deltas against the previous
  sample over the elapsed interval), gauge levels, and histogram
  ``count``/``sum``/``p50``/``p95``/``p99`` summaries — into a fixed-size
  ring (oldest samples fall off, the newest ``capacity`` survive);
* besides the registry, a tick folds in the always-on engine statistics
  the one-shot snapshot also reports (index and view manager stats, the
  audit log's appended/dropped totals, the slow log's recorded total), so
  health rules see one uniform counter namespace;
* :meth:`FlightRecorder.start` runs ticks on a daemon thread at a fixed
  interval — the low-overhead continuous mode; :meth:`FlightRecorder.stop`
  ends it.  Manual and daemon ticks serialise on one mutex;
* :meth:`FlightRecorder.snapshot` exports the whole ring as the stable
  ``repro.flight/1`` JSON document (``repro flight`` in the CLI).

Cost discipline: the recorder is **pull-based** — it subscribes to
nothing and adds no code to engine hot paths, so a database without
observability pays literally nothing, and an observed database pays only
when someone ticks (priced by E21).  ``tick(now=...)`` takes an explicit
monotonic timestamp so tests drive irregular intervals deterministically.

The :mod:`repro.obs.health` rules evaluate over the ring; ``repro top``
and ``repro metrics --watch`` re-render the newest sample per interval.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from time import time as _wall_time
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightSample",
    "FlightRecorder",
    "recorder_of",
    "render_sample",
]

FLIGHT_SCHEMA_VERSION = "repro.flight/1"

#: Histogram summary: count / sum / p50 / p95 / p99 (None when empty).
HistogramSummary = Dict[str, Optional[float]]


class FlightSample(NamedTuple):
    """One frozen observation of the registry.

    ``counters`` holds cumulative totals; ``rates`` holds per-second
    deltas against the *previous* sample (empty for the first sample of a
    recorder and whenever ``elapsed`` is not positive).  ``ts`` is
    monotonic (rate math), ``wall`` is epoch time (display/export).
    """

    seq: int
    ts: float
    wall: float
    elapsed: Optional[float]
    counters: Dict[str, float]
    rates: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, HistogramSummary]

    def rate(self, name: str, default: float = 0.0) -> float:
        return self.rates.get(name, default)

    def percentile(self, name: str, stat: str = "p95") -> Optional[float]:
        summary = self.histograms.get(name)
        if summary is None:
            return None
        return summary.get(stat)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "wall": self.wall,
            "elapsed": self.elapsed,
            "counters": dict(sorted(self.counters.items())),
            "rates": dict(sorted(self.rates.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(summary)
                for name, summary in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<FlightSample #{self.seq} counters={len(self.counters)} "
            f"elapsed={self.elapsed}>"
        )


class FlightRecorder:
    """Fixed-size ring of periodic :class:`FlightSample` observations.

    ``capacity`` bounds the ring (the newest ``capacity`` samples
    survive); ``ticks`` counts every sample ever taken.  Attached per
    database by :class:`~repro.obs.instruments.Observability` as
    ``db.obs.recorder``.
    """

    def __init__(self, database: Any, capacity: int = 256) -> None:
        if capacity < 2:
            raise ValueError("flight recorder capacity must be at least 2")
        self.database = database
        self.capacity = capacity
        self.ring: Deque[FlightSample] = deque(maxlen=capacity)
        #: Total samples ever taken (the ring is bounded, this is not).
        self.ticks = 0
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.interval: Optional[float] = None

    # -- sampling ----------------------------------------------------------------

    def _collect(self) -> Tuple[
        Dict[str, float], Dict[str, float], Dict[str, HistogramSummary]
    ]:
        """Counters / gauges / histogram summaries of the observed db.

        The engine's always-on statistics (index and view managers, audit
        and slow-log totals) are folded into the counter namespace — they
        are monotone counts, so their deltas are rates like any other.
        """
        db = self.database
        obs = getattr(db, "obs", None)
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, HistogramSummary] = {}
        if obs is not None:
            metrics = obs.metrics
            for name, counter in metrics._counters.items():
                counters[name] = counter.value
            for name, gauge in metrics._gauges.items():
                gauges[name] = gauge.value
            for name, histogram in metrics._histograms.items():
                histograms[name] = {
                    "count": float(histogram.count),
                    "sum": float(histogram.sum),
                    "p50": histogram.percentile(50),
                    "p95": histogram.percentile(95),
                    "p99": histogram.percentile(99),
                }
            audit = obs.audit
            if audit is not None:
                appended = float(audit.appended)
                ring_max = float(audit.ring.maxlen or 0)
                counters["audit.appended"] = appended
                counters["audit.dropped"] = max(0.0, appended - ring_max)
            slowlog = obs.slowlog
            if slowlog is not None:
                counters["slowlog.recorded"] = float(slowlog.recorded)
        indexes = getattr(db, "indexes", None)
        if indexes is not None:
            for name, value in indexes.stats_snapshot().items():
                counters[name] = float(value)
        views = getattr(db, "views", None)
        if views is not None:
            for name, value in views.stats_snapshot().items():
                counters[name] = float(value)
        return counters, gauges, histograms

    def tick(self, now: Optional[float] = None) -> FlightSample:
        """Take one sample; ``now`` overrides the monotonic clock (tests).

        Rate math: for every counter present in this sample,
        ``rate = (value - previous value or 0) / elapsed``.  A
        non-positive elapsed (clock retreat, duplicate timestamp) yields
        an empty rate map rather than garbage.
        """
        with self._lock:
            ts = perf_counter() if now is None else now
            counters, gauges, histograms = self._collect()
            previous = self.ring[-1] if self.ring else None
            elapsed: Optional[float] = None
            rates: Dict[str, float] = {}
            if previous is not None:
                elapsed = ts - previous.ts
                if elapsed > 0:
                    before = previous.counters
                    rates = {
                        name: (value - before.get(name, 0.0)) / elapsed
                        for name, value in counters.items()
                    }
            sample = FlightSample(
                seq=self.ticks + 1,
                ts=ts,
                wall=_wall_time(),
                elapsed=elapsed,
                counters=counters,
                rates=rates,
                gauges=gauges,
                histograms=histograms,
            )
            self.ring.append(sample)
            self.ticks += 1
            return sample

    # -- the daemon --------------------------------------------------------------

    def start(self, interval: float = 1.0) -> None:
        """Tick every ``interval`` seconds on a daemon thread.

        Idempotent while running; the thread dies with the process (it
        holds no resources beyond the ring it appends to).
        """
        if interval <= 0:
            raise ValueError("flight recorder interval must be positive")
        if self._thread is not None and self._thread.is_alive():
            return
        self.interval = interval
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(interval):
                self.tick()

        self._thread = threading.Thread(
            target=run, name="repro-flight-recorder", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the daemon thread (no-op when not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.interval = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- inspection --------------------------------------------------------------

    def samples(self) -> List[FlightSample]:
        """Buffered samples, oldest first (a copy)."""
        with self._lock:
            return list(self.ring)

    def latest(self) -> Optional[FlightSample]:
        with self._lock:
            return self.ring[-1] if self.ring else None

    def window(self, n: int) -> List[FlightSample]:
        """The newest ``n`` samples, oldest first."""
        with self._lock:
            if n <= 0:
                return []
            return list(self.ring)[-n:]

    def rate_series(self, name: str) -> List[float]:
        """The per-second rate of one counter across the buffered samples
        (samples without rate data — the first — are skipped)."""
        return [
            sample.rates[name]
            for sample in self.samples()
            if name in sample.rates
        ]

    def snapshot(self) -> Dict[str, Any]:
        """The ``repro.flight/1`` JSON document."""
        with self._lock:
            samples = list(self.ring)
            return {
                "schema": FLIGHT_SCHEMA_VERSION,
                "database": getattr(self.database, "name", None),
                "capacity": self.capacity,
                "ticks": self.ticks,
                "interval": self.interval,
                "samples": [sample.as_dict() for sample in samples],
            }

    def clear(self) -> None:
        with self._lock:
            self.ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.ring)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder ticks={self.ticks} buffered={len(self.ring)} "
            f"capacity={self.capacity}>"
        )


def recorder_of(db: Any) -> Optional[FlightRecorder]:
    """The flight recorder of an observed database, or None."""
    obs = getattr(db, "obs", None)
    return obs.recorder if obs is not None else None


def render_sample(
    sample: FlightSample, limit: int = 20, zeros: bool = False
) -> str:
    """A compact text frame of one sample: top rates, gauges, percentiles.

    The shared renderer behind ``repro metrics --watch`` and the body of
    ``repro top``.  ``limit`` bounds the rate rows (sorted by magnitude);
    ``zeros`` keeps zero-rate rows.
    """
    lines: List[str] = [
        f"sample #{sample.seq}"
        + (
            f"  (+{sample.elapsed:.3f}s)"
            if sample.elapsed is not None
            else "  (first sample: no rates yet)"
        )
    ]
    rows = sorted(
        sample.rates.items(), key=lambda kv: (-abs(kv[1]), kv[0])
    )
    if not zeros:
        rows = [(name, rate) for name, rate in rows if rate]
    rows = rows[:limit]
    if rows:
        width = max(len(name) for name, _ in rows)
        lines.append("rates (/s):")
        lines.extend(
            f"  {name.ljust(width)}  {rate:,.1f}" for name, rate in rows
        )
    else:
        lines.append("rates (/s): (all quiet)")
    gauge_rows = [
        (name, value) for name, value in sorted(sample.gauges.items()) if value
    ]
    if gauge_rows:
        width = max(len(name) for name, _ in gauge_rows)
        lines.append("gauges:")
        lines.extend(
            f"  {name.ljust(width)}  {value}" for name, value in gauge_rows
        )
    hist_rows = [
        (name, summary)
        for name, summary in sorted(sample.histograms.items())
        if summary.get("count")
    ]
    if hist_rows:
        lines.append("histograms:")
        for name, summary in hist_rows:
            p50, p95, p99 = summary["p50"], summary["p95"], summary["p99"]
            lines.append(
                f"  {name}  count={summary['count']:.0f} "
                f"p50={p50 if p50 is None else round(p50, 6)} "
                f"p95={p95 if p95 is None else round(p95, 6)} "
                f"p99={p99 if p99 is None else round(p99, 6)}"
            )
    return "\n".join(lines)
