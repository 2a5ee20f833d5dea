"""Observability: tracing spans, metrics and event-bus telemetry.

The engine's central mechanism — value inheritance with live update
propagation — makes cost *emergent*: one ``attribute_updated`` can fan out
through interface hierarchies, composites and lock inheritance.  This
package measures that, with a disabled path cheap enough to leave the
instrumentation in the hot code:

* :class:`~repro.obs.tracing.Tracer` — nestable spans
  (``with tracer.span("expand"):``), a shared no-op when disabled;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms, exported as plain dicts / the stable
  ``repro.metrics/1`` JSON schema;
* :class:`~repro.obs.tap.EventTap` — one wildcard subscription on the
  event bus turning every event kind into counters (plus per-relationship-
  type propagation/binding counters);
* :class:`~repro.obs.provenance.AuditLog` — append-only causal audit log
  (bounded ring + optional JSONL sink), the one record stream: it keeps
  the bus events and the slow operations, with per-mutation
  :class:`~repro.obs.provenance.PropagationCone` reconstruction and
  :func:`~repro.obs.provenance.explain_value` value provenance;
* :class:`~repro.obs.slowlog.SlowLog` — per-kind latency budgets; an
  over-budget operation (query, propagation, expansion, txn) is counted
  and appended to the audit stream with its EXPLAIN plan / cone summary;
* :class:`~repro.obs.profiler.SamplingProfiler` — background-thread
  wall-clock frame sampler with collapsed-stack / flamegraph output and
  per-span attribution (``repro profile``);
* :class:`~repro.obs.recorder.FlightRecorder` — a pull-based ring of
  periodic registry samples turning lifetime counters into *rates*
  (``repro flight``, ``repro top``, the ``repro.flight/1`` schema);
* :mod:`~repro.obs.health` — declarative ok/degraded/critical rules
  over the recorder's series (``repro health``, ``repro.health/1``);
* :mod:`~repro.obs.bench` — the unified benchmark harness behind
  ``repro bench``: one timing discipline for every suite, versioned
  ``BENCH_*.json`` snapshots, noise-aware regression gating;
* :class:`~repro.obs.instruments.Observability` — the per-database bundle,
  attached via ``Database(observe=True)`` and reachable as ``db.obs``.

See ``docs/observability.md`` for usage and the JSON schemas
(``repro.metrics/1``, ``repro.audit/1``), and the ``repro metrics`` /
``repro audit`` / ``repro explain-value`` / ``--trace`` CLI surfaces in
:mod:`repro.cli`.
"""

from .bench import (
    BENCH_SCHEMA_VERSION,
    BenchCase,
    BenchSuite,
    CaseResult,
    Comparison,
    Runner,
    compare_snapshots,
    discover_suites,
    load_snapshot,
    make_snapshot,
    write_snapshot,
)
from .export import AUDIT_SCHEMA_VERSION, JsonlSink, audit_snapshot, render_audit_table
from .health import (
    HEALTH_SCHEMA_VERSION,
    HealthMonitor,
    HealthReport,
    HealthRule,
    RuleResult,
    default_rules,
    hit_rate_rule,
    monitor_of,
    percentile_rule,
    rate_rule,
)
from .instruments import Observability, maybe_span, observability_of
from .recorder import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    FlightSample,
    recorder_of,
    render_sample,
)
from .metrics import (
    DEFAULT_BUCKETS,
    FANOUT_BUCKETS,
    RESERVOIR_SIZE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiler import PROFILE_SCHEMA_VERSION, SamplingProfiler
from .slowlog import SLOWLOG_SCHEMA_VERSION, SlowLog, SlowOp
from .provenance import (
    AuditLog,
    AuditRecord,
    PropagationCone,
    ValueProvenance,
    explain_value,
)
from .race import RACE_SCHEMA_VERSION, RaceReport, RaceSanitizer
from .report import SCHEMA_VERSION, derived_stats, exercise, render_table, snapshot
from .tap import EventTap
from .tracing import NULL_SPAN, Span, Tracer, format_span_tree

__all__ = [
    "RACE_SCHEMA_VERSION",
    "RaceReport",
    "RaceSanitizer",
    "Observability",
    "observability_of",
    "maybe_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "FANOUT_BUCKETS",
    "EventTap",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "format_span_tree",
    "SCHEMA_VERSION",
    "snapshot",
    "render_table",
    "exercise",
    "derived_stats",
    "AuditLog",
    "AuditRecord",
    "PropagationCone",
    "ValueProvenance",
    "explain_value",
    "AUDIT_SCHEMA_VERSION",
    "JsonlSink",
    "audit_snapshot",
    "render_audit_table",
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "BenchSuite",
    "CaseResult",
    "Comparison",
    "Runner",
    "compare_snapshots",
    "discover_suites",
    "load_snapshot",
    "make_snapshot",
    "write_snapshot",
    "PROFILE_SCHEMA_VERSION",
    "SamplingProfiler",
    "RESERVOIR_SIZE",
    "SLOWLOG_SCHEMA_VERSION",
    "SlowLog",
    "SlowOp",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "FlightSample",
    "recorder_of",
    "render_sample",
    "HEALTH_SCHEMA_VERSION",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "RuleResult",
    "default_rules",
    "hit_rate_rule",
    "monitor_of",
    "percentile_rule",
    "rate_rule",
]
