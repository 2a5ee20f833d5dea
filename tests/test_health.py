"""Tests for the health subsystem (repro.obs.health): every default rule
firing and clearing deterministically."""

import pytest

from repro.engine import Database
from repro.errors import ReproError
from repro.obs import HEALTH_SCHEMA_VERSION
from repro.obs.health import (
    CRITICAL,
    DEGRADED,
    EXIT_CODES,
    OK,
    HealthMonitor,
    HealthRule,
    default_rules,
    hit_rate_rule,
    monitor_of,
    percentile_rule,
    rate_rule,
)
from repro.obs.recorder import FlightSample


def sample(seq, ts, counters=None, histograms=None, gauges=None):
    """A hand-built FlightSample: health rules read counters/histograms
    and timestamps only."""
    return FlightSample(
        seq=seq,
        ts=float(ts),
        wall=float(ts),
        elapsed=None,
        counters={k: float(v) for k, v in (counters or {}).items()},
        rates={},
        gauges=dict(gauges or {}),
        histograms=histograms or {},
    )


def series(metric, values, start_seq=1):
    """Samples one second apart carrying one counter's running values."""
    return [
        sample(start_seq + i, i, counters={metric: value})
        for i, value in enumerate(values)
    ]


def rules_by_name():
    return {rule.name: rule for rule in default_rules()}


class TestRuleMechanics:
    def test_too_few_samples_abstains(self):
        rule = rate_rule("r", "m", 0.0)
        result = rule.evaluate(series("m", [1000.0]))
        assert result.status == OK
        assert result.reason is None

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            HealthRule("r", "d", lambda window: None, severity="fatal")

    def test_window_smaller_than_min_samples_rejected(self):
        with pytest.raises(ValueError):
            HealthRule("r", "d", lambda window: None, window=1, min_samples=2)

    def test_only_newest_window_judged(self):
        rule = rate_rule("r", "m", 0.0, window=2)
        # Old growth outside the window, flat inside it: ok.
        samples = series("m", [0, 100, 100, 100])
        assert rule.evaluate(samples).status == OK


class TestDefaultRulesFireAndClear:
    @pytest.mark.parametrize(
        "name,metric",
        [
            ("view-staleness-growth", "query.view.staleness"),
            ("audit-overflow", "audit.dropped"),
        ],
    )
    def test_zero_threshold_rate_rules(self, name, metric):
        rule = rules_by_name()[name]
        firing = rule.evaluate(series(metric, [0, 3]))
        assert firing.status == DEGRADED
        assert metric in firing.reason
        cleared = rule.evaluate(series(metric, [3, 3, 3, 3, 3, 3]))
        assert cleared.status == OK

    def test_index_self_heal(self):
        rule = rules_by_name()["index-self-heal"]
        metric = "index.stale_repairs"
        assert rule.evaluate(series(metric, [0, 100])).status == DEGRADED
        assert rule.evaluate(series(metric, [0, 5])).status == OK

    def test_slowlog_rate(self):
        rule = rules_by_name()["slowlog-rate"]
        metric = "slowlog.recorded"
        assert rule.evaluate(series(metric, [0, 50])).status == DEGRADED
        assert rule.evaluate(series(metric, [0, 2])).status == OK

    @pytest.mark.parametrize(
        "name,hits,misses,traffic",
        [
            ("view-hit-collapse", "query.view.hits", "query.view.misses", 40),
        ],
    )
    def test_hit_rate_collapse(self, name, hits, misses, traffic):
        rule = rules_by_name()[name]
        collapsed = [
            sample(1, 0, counters={hits: 0, misses: 0}),
            sample(2, 1, counters={hits: traffic * 0.25,
                                   misses: traffic * 0.75}),
        ]
        firing = rule.evaluate(collapsed)
        assert firing.status == DEGRADED
        assert "hit rate" in firing.reason

        healthy = [
            sample(1, 0, counters={hits: 0, misses: 0}),
            sample(2, 1, counters={hits: traffic * 0.9,
                                   misses: traffic * 0.1}),
        ]
        assert rule.evaluate(healthy).status == OK

        # An idle window abstains regardless of the lifetime ratio.
        idle = [
            sample(1, 0, counters={hits: 10, misses: 90}),
            sample(2, 1, counters={hits: 10, misses: 90}),
        ]
        assert rule.evaluate(idle).status == OK

    def test_lock_wait_p95(self):
        rule = rules_by_name()["lock-wait-p95"]
        slow = {"locks.wait_seconds":
                {"count": 10.0, "sum": 2.0, "p50": 0.1, "p95": 0.2, "p99": 0.3}}
        quiet_before = {"locks.wait_seconds":
                        {"count": 0.0, "sum": 0.0,
                         "p50": None, "p95": None, "p99": None}}
        firing = rule.evaluate([
            sample(1, 0, histograms=quiet_before),
            sample(2, 1, histograms=slow),
        ])
        assert firing.status == DEGRADED
        assert "locks.wait_seconds" in firing.reason
        # Same high lifetime percentile but no fresh observations: clears.
        cleared = rule.evaluate([
            sample(3, 2, histograms=slow),
            sample(4, 3, histograms=slow),
        ])
        assert cleared.status == OK
        # Fast waits while live: ok.
        fast = {"locks.wait_seconds":
                {"count": 10.0, "sum": 0.01,
                 "p50": 0.001, "p95": 0.002, "p99": 0.003}}
        assert rule.evaluate([
            sample(1, 0, histograms=quiet_before),
            sample(2, 1, histograms=fast),
        ]).status == OK

    def test_lock_timeouts_is_critical(self):
        rule = rules_by_name()["lock-timeouts"]
        firing = rule.evaluate(series("locks.timeouts", [0, 1]))
        assert firing.status == CRITICAL
        assert rule.evaluate(series("locks.timeouts", [1, 1, 1])).status == OK

    def test_every_default_rule_is_exercised_above(self):
        tested = {
            "view-staleness-growth", "audit-overflow", "index-self-heal",
            "slowlog-rate", "view-hit-collapse",
            "lock-wait-p95", "lock-timeouts",
        }
        assert tested == set(rules_by_name())


class TestMonitor:
    def test_ok_to_degraded_to_ok_on_a_live_database(self):
        db = Database("health", observe=True)
        rec = db.obs.recorder
        monitor = db.obs.health
        rec.tick(now=0.0)
        rec.tick(now=1.0)
        assert monitor.evaluate().status == OK
        for i in range(20):
            db.obs.slowlog.note("query", 99.0, subject=i)
        rec.tick(now=2.0)
        report = monitor.evaluate()
        assert report.status == DEGRADED
        assert [r.name for r in report.firing()] == ["slowlog-rate"]
        for i in range(6):
            rec.tick(now=3.0 + i)
        assert monitor.evaluate().status == OK

    def test_critical_outranks_degraded(self):
        db = Database("health", observe=True)
        rec = db.obs.recorder
        rec.tick(now=0.0)
        for i in range(10):
            db.obs.slowlog.note("query", 99.0, subject=i)
        db.obs.metrics.counter("locks.timeouts").inc()
        rec.tick(now=1.0)
        report = db.obs.health.evaluate()
        assert report.status == CRITICAL
        assert report.exit_code == EXIT_CODES[CRITICAL] == 2

    def test_report_document_and_render(self):
        db = Database("health", observe=True)
        db.obs.recorder.tick(now=0.0)
        db.obs.recorder.tick(now=1.0)
        report = db.obs.health.evaluate()
        doc = report.as_dict()
        assert doc["schema"] == HEALTH_SCHEMA_VERSION
        assert doc["database"] == "health"
        assert doc["status"] == OK
        assert len(doc["rules"]) == len(default_rules())
        assert {"name", "status", "reason", "description"} == set(
            doc["rules"][0]
        )
        text = report.render()
        assert "health: OK" in text
        assert "lock-timeouts" in text

    def test_monitor_of(self):
        db = Database("health", observe=True)
        assert monitor_of(db).recorder is db.obs.recorder
        custom = [rate_rule("only", "m", 0.0)]
        assert [r.name for r in monitor_of(db, custom).rules] == ["only"]
        with pytest.raises(ReproError):
            monitor_of(Database("dark"))

    def test_custom_factories_compose(self):
        samples = [
            sample(1, 0, counters={"h": 0, "m": 0}),
            sample(2, 1, counters={"h": 1, "m": 9}),
        ]
        monitor_rules = [
            hit_rate_rule("hr", "h", "m", floor=0.5, min_events=5),
            percentile_rule("px", "lat", 1.0),
        ]
        results = {
            rule.name: rule.evaluate(samples) for rule in monitor_rules
        }
        assert results["hr"].status == DEGRADED
        assert results["px"].status == OK  # histogram absent → abstains

    def test_evaluate_uses_monitor_rules(self):
        db = Database("health", observe=True)
        db.obs.recorder.tick(now=0.0)
        db.obs.metrics.counter("custom.errors").inc(5)
        db.obs.recorder.tick(now=1.0)
        monitor = HealthMonitor(
            db.obs.recorder, [rate_rule("custom", "custom.errors", 0.0)]
        )
        report = monitor.evaluate()
        assert report.status == DEGRADED
        assert report.results[0].name == "custom"
