"""Counters, gauges and fixed-bucket histograms — no external dependencies.

The registry is name-keyed and flat (dotted names by convention, e.g.
``propagation.fanout``); instruments are created on first use::

    registry.counter("locks.acquired").inc()
    registry.histogram("propagation.fanout").observe(12)

:meth:`MetricsRegistry.as_dict` exposes everything as plain dicts with a
stable shape (documented in ``docs/observability.md`` and wrapped into the
``repro.metrics/1`` JSON schema by :mod:`repro.obs.report`).
"""

from __future__ import annotations

from bisect import bisect_left
from random import Random
from zlib import crc32
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "FANOUT_BUCKETS",
    "RESERVOIR_SIZE",
]

#: Reservoir capacity per histogram: percentiles are exact up to this many
#: observations and an unbiased uniform sample beyond (Algorithm R).
RESERVOIR_SIZE = 512

#: General-purpose size buckets (powers-of-ten-ish).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
#: Buckets for propagation fan-out — 0 is its own bucket because "update
#: with no inheritors" is the interesting base case.
FANOUT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 500)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max and percentiles.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last edge land in the overflow (``+Inf``) bucket.  Alongside the
    buckets, a bounded reservoir (Algorithm R, :data:`RESERVOIR_SIZE`
    values) keeps a uniform sample of every observation, so
    :meth:`percentile` is **exact** until the reservoir fills and an
    unbiased estimate after.  The reservoir's RNG is seeded from the
    metric name, so runs are reproducible.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow",
                 "count", "sum", "min", "max", "reservoir", "_rng")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if not bounds:
            raise ValueError(f"histogram {name!r}: bounds must be non-empty")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.reservoir: List[float] = []
        self._rng = Random(crc32(name.encode()))

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        reservoir = self.reservoir
        if len(reservoir) < RESERVOIR_SIZE:
            reservoir.append(value)
        else:
            # Algorithm R: keep each of the `count` observations seen so
            # far in the sample with probability RESERVOIR_SIZE / count.
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                reservoir[slot] = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (0–100), linearly interpolated.

        Exact while at most :data:`RESERVOIR_SIZE` values were observed;
        estimated from the uniform reservoir sample afterwards.  ``None``
        without observations.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} out of range [0, 100]")
        sample = sorted(self.reservoir)
        if not sample:
            return None
        if len(sample) == 1:
            return sample[0]
        rank = (len(sample) - 1) * p / 100.0
        low = int(rank)
        frac = rank - low
        if frac == 0:
            return sample[low]
        return sample[low] + (sample[low + 1] - sample[low]) * frac

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds, self.bucket_counts)
            ],
            "inf": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "sampled": len(self.reservoir),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} count={self.count} mean={self.mean}>"


class MetricsRegistry:
    """All instruments of one observed database, by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Bumped by :meth:`reset`: holders of instrument handles rebind
        #: when it moves.
        self.generation = 0

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, "counter")
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_free(name, "gauge")
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_free(name, "histogram")
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def value(self, name: str, default: Any = None) -> Any:
        """The current value of a counter or gauge (convenience)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict export: the payload of the ``repro.metrics/1`` schema."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
