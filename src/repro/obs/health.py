"""Declarative health rules over the flight recorder's time series.

Admission control and backpressure need a *judgement*, not a wall of
counters: is this database ok, degraded, or critical — and why.  This
module evaluates a small registry of declarative rules over the
:class:`~repro.obs.recorder.FlightRecorder` ring and folds the verdicts
into one :class:`HealthReport` (the ``repro.health/1`` schema behind
``repro health``, whose exit code is the status).

A :class:`HealthRule` is a named probe over the newest ``window`` samples;
it returns a *reason* string when firing and ``None`` when healthy, and
carries the status it degrades the database to (``degraded`` or
``critical``).  Three factories cover the common shapes:

* :func:`rate_rule` — a counter grew faster than ``threshold``/s across
  the window (view staleness, index self-heals, slow-op rate, audit-ring
  overflow, lock timeouts);
* :func:`hit_rate_rule` — a hits/misses pair's windowed hit rate fell
  under ``floor`` with at least ``min_events`` of traffic (the view
  router);
* :func:`percentile_rule` — a histogram percentile exceeded ``threshold``
  *and* the histogram saw fresh observations inside the window, so a rule
  clears once the pressure stops (lock wait p95).

Rules judge **windowed deltas, never lifetime totals** — a database that
suffered once and recovered reports ok again as soon as the bad samples
age out of the window.  :func:`default_rules` is the stock registry; pass
your own list to :class:`HealthMonitor` to tune thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from .recorder import FlightRecorder, FlightSample

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "OK",
    "DEGRADED",
    "CRITICAL",
    "EXIT_CODES",
    "HealthRule",
    "RuleResult",
    "HealthReport",
    "HealthMonitor",
    "rate_rule",
    "hit_rate_rule",
    "percentile_rule",
    "default_rules",
    "monitor_of",
]

HEALTH_SCHEMA_VERSION = "repro.health/1"

OK = "ok"
DEGRADED = "degraded"
CRITICAL = "critical"

#: CLI exit codes per status (``repro health``).
EXIT_CODES: Dict[str, int] = {OK: 0, DEGRADED: 1, CRITICAL: 2}

_RANK: Dict[str, int] = {OK: 0, DEGRADED: 1, CRITICAL: 2}

#: A probe inspects the newest ``window`` samples (oldest first) and
#: returns a human-readable reason when the rule fires, None when not.
Probe = Callable[[Sequence[FlightSample]], Optional[str]]


class RuleResult(NamedTuple):
    """One rule's verdict for one evaluation."""

    name: str
    status: str
    reason: Optional[str]
    description: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "description": self.description,
        }


@dataclass(frozen=True)
class HealthRule:
    """One named, windowed judgement over recorder samples.

    ``severity`` is the status the database degrades to while the rule
    fires.  Fewer than ``min_samples`` buffered samples means the rule
    abstains (reports ok) — rates need at least two observations.
    """

    name: str
    description: str
    probe: Probe
    severity: str = DEGRADED
    window: int = 5
    min_samples: int = 2

    def __post_init__(self) -> None:
        if self.severity not in (DEGRADED, CRITICAL):
            raise ValueError(
                f"rule {self.name!r}: severity must be degraded or critical"
            )
        if self.window < self.min_samples:
            raise ValueError(
                f"rule {self.name!r}: window smaller than min_samples"
            )

    def evaluate(self, samples: Sequence[FlightSample]) -> RuleResult:
        window = list(samples)[-self.window:]
        if len(window) < self.min_samples:
            return RuleResult(self.name, OK, None, self.description)
        reason = self.probe(window)
        status = self.severity if reason is not None else OK
        return RuleResult(self.name, status, reason, self.description)


# ---------------------------------------------------------------------------
# rule factories
# ---------------------------------------------------------------------------


def _window_rate(
    window: Sequence[FlightSample], metric: str
) -> Optional[float]:
    """Counter growth per second across a window, None when unmeasurable."""
    first, last = window[0], window[-1]
    elapsed = last.ts - first.ts
    if elapsed <= 0:
        return None
    delta = last.counters.get(metric, 0.0) - first.counters.get(metric, 0.0)
    return delta / elapsed


def rate_rule(
    name: str,
    metric: str,
    threshold: float,
    description: Optional[str] = None,
    severity: str = DEGRADED,
    window: int = 5,
) -> HealthRule:
    """Fire when ``metric`` grows faster than ``threshold``/s in-window."""

    def probe(window_samples: Sequence[FlightSample]) -> Optional[str]:
        rate = _window_rate(window_samples, metric)
        if rate is not None and rate > threshold:
            span = window_samples[-1].ts - window_samples[0].ts
            return (
                f"{metric} grew at {rate:.2f}/s over the last {span:.1f}s "
                f"(threshold {threshold:g}/s)"
            )
        return None

    return HealthRule(
        name=name,
        description=description
        or f"{metric} growth stays at or under {threshold:g}/s",
        probe=probe,
        severity=severity,
        window=window,
    )


def hit_rate_rule(
    name: str,
    hits: str,
    misses: str,
    floor: float,
    min_events: float = 50,
    description: Optional[str] = None,
    severity: str = DEGRADED,
    window: int = 5,
) -> HealthRule:
    """Fire when the windowed ``hits/(hits+misses)`` falls under ``floor``.

    Quiet windows (fewer than ``min_events`` lookups) abstain: an idle
    cache is not a collapsed cache.
    """

    def probe(window_samples: Sequence[FlightSample]) -> Optional[str]:
        first, last = window_samples[0], window_samples[-1]
        hit_delta = last.counters.get(hits, 0.0) - first.counters.get(hits, 0.0)
        miss_delta = (
            last.counters.get(misses, 0.0) - first.counters.get(misses, 0.0)
        )
        traffic = hit_delta + miss_delta
        if traffic < min_events:
            return None
        ratio = hit_delta / traffic
        if ratio < floor:
            return (
                f"hit rate {ratio:.0%} over the last {traffic:.0f} lookups "
                f"({hits} vs {misses}; floor {floor:.0%})"
            )
        return None

    return HealthRule(
        name=name,
        description=description
        or f"windowed {hits} hit rate stays at or above {floor:.0%}",
        probe=probe,
        severity=severity,
        window=window,
    )


def percentile_rule(
    name: str,
    metric: str,
    threshold: float,
    stat: str = "p95",
    unit: str = "s",
    description: Optional[str] = None,
    severity: str = DEGRADED,
    window: int = 5,
) -> HealthRule:
    """Fire when histogram ``metric``'s ``stat`` exceeds ``threshold``.

    Only while the histogram is *live*: the observation count must have
    grown inside the window, so the rule clears once the operations stop
    even though the lifetime percentile stays high.
    """

    def probe(window_samples: Sequence[FlightSample]) -> Optional[str]:
        first, last = window_samples[0], window_samples[-1]
        summary = last.histograms.get(metric)
        if summary is None:
            return None
        count = summary.get("count") or 0.0
        previous = first.histograms.get(metric)
        previous_count = (previous.get("count") or 0.0) if previous else 0.0
        if count <= previous_count:
            return None
        value = summary.get(stat)
        if value is not None and value > threshold:
            return (
                f"{metric} {stat}={value:.4g}{unit} with "
                f"{count - previous_count:.0f} fresh observation(s) "
                f"(threshold {threshold:g}{unit})"
            )
        return None

    return HealthRule(
        name=name,
        description=description
        or f"{metric} {stat} stays at or under {threshold:g}{unit} while live",
        probe=probe,
        severity=severity,
        window=window,
    )


def default_rules() -> List[HealthRule]:
    """The stock registry: one rule per known degradation mode."""
    return [
        rate_rule(
            "view-staleness-growth",
            "query.view.staleness",
            0.0,
            description="materialized views are not going stale "
            "(schema churn forcing rebuilds)",
        ),
        rate_rule(
            "index-self-heal",
            "index.stale_repairs",
            10.0,
            description="value indexes rarely need epoch self-heals "
            "(heavy healing means maintenance is missing writes)",
        ),
        hit_rate_rule(
            "view-hit-collapse",
            "query.view.hits",
            "query.view.misses",
            floor=0.5,
            min_events=20,
            description="the view router keeps a windowed hit rate of "
            "at least 50%",
        ),
        rate_rule(
            "slowlog-rate",
            "slowlog.recorded",
            5.0,
            description="over-budget operations stay rare "
            "(at or under 5/s)",
        ),
        rate_rule(
            "audit-overflow",
            "audit.dropped",
            0.0,
            description="the audit ring is not overflowing "
            "(records falling off before export)",
        ),
        percentile_rule(
            "lock-wait-p95",
            "locks.wait_seconds",
            0.05,
            description="lock waits stay under 50ms at p95 while "
            "contention is live",
        ),
        rate_rule(
            "lock-timeouts",
            "locks.timeouts",
            0.0,
            severity=CRITICAL,
            description="no blocking lock request times out "
            "(sessions are starving)",
        ),
    ]


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------


@dataclass
class HealthReport:
    """The folded verdict of one evaluation."""

    status: str
    results: List[RuleResult]
    samples: int
    database: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def firing(self) -> List[RuleResult]:
        return [result for result in self.results if result.status != OK]

    def as_dict(self) -> Dict[str, Any]:
        """The stable ``repro.health/1`` document."""
        return {
            "schema": HEALTH_SCHEMA_VERSION,
            "database": self.database,
            "status": self.status,
            "samples": self.samples,
            "rules": [result.as_dict() for result in self.results],
        }

    def render(self) -> str:
        """Aligned text rendering for terminal output."""
        lines = [
            f"health: {self.status.upper()}  "
            f"({self.samples} sample(s) in the flight ring)"
        ]
        width = max((len(result.name) for result in self.results), default=0)
        for result in self.results:
            marker = {OK: "ok      ", DEGRADED: "DEGRADED", CRITICAL: "CRITICAL"}[
                result.status
            ]
            lines.append(f"  [{marker}] {result.name.ljust(width)}")
            if result.reason is not None:
                lines.append(f"             {result.reason}")
        return "\n".join(lines)


@dataclass
class HealthMonitor:
    """Evaluates a rule registry over a recorder's buffered samples."""

    recorder: FlightRecorder
    rules: List[HealthRule] = field(default_factory=default_rules)

    def evaluate(self) -> HealthReport:
        samples = self.recorder.samples()
        results = [rule.evaluate(samples) for rule in self.rules]
        status = OK
        for result in results:
            if _RANK[result.status] > _RANK[status]:
                status = result.status
        return HealthReport(
            status=status,
            results=results,
            samples=len(samples),
            database=getattr(self.recorder.database, "name", None),
        )


def monitor_of(db: Any, rules: Optional[List[HealthRule]] = None) -> HealthMonitor:
    """A monitor over an observed database's flight recorder."""
    obs = getattr(db, "obs", None)
    if obs is None:
        from ..errors import ReproError

        raise ReproError(
            f"database {getattr(db, 'name', db)!r} has no observability "
            f"attached (create it with observe=True or call "
            f"enable_observability())"
        )
    if rules is None:
        return HealthMonitor(obs.recorder)
    return HealthMonitor(obs.recorder, rules)
