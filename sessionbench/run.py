#!/usr/bin/env python3
"""End-to-end design-session benchmark.

Run from the repository root:

    python3 sessionbench/run.py --workload edit_observed --seed 1 --seconds 25 --trace 0

``--seconds`` fixes the number of whole rounds of the seeded command
stream through a nominal round length per workload, so every run at one
setting does the same work whatever the machine's speed; on the machine
the README names, the timed stream lasts about that long.

With ``--trace 0`` the run sets up the workload several times (``setup_s``
is their median), runs the rounds, and reports the end-to-end metrics.
With ``--trace 1`` it runs half the rounds twice from identical set-ups,
untraced and then with span recorders on every layer's entry points, and
reports the per-layer metrics; the untraced pass gives
``bench.trace_overhead``.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A report with sample counts and traffic shares goes to
``sessionbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
from statistics import mean, median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Measured and reported in the table and the report file, but left out of
#: the result line: on ``assemble`` the update tail is set by the cyclic
#: collector's pauses and does not repeat within a bound (see README).
REPORT_ONLY = {"update_p99_us"}
CHECKPOINT_PHASES = ("sweep", "save", "load")

UNITS = {
    "setup_s": "s", "session_s": "s", "read_p50_us": "us",
    "update_p50_us": "us", "update_p99_us": "us", "txn_p50_us": "us",
    "query_p50_us": "us", "structure_p50_us": "us", "create_p50_us": "us",
    "version_p50_us": "us", "sweep_ms": "ms", "save_ms": "ms", "load_ms": "ms",
    "image_bytes_per_object": "bytes", "peak_rss_mb": "MiB",
}


def import_program():
    """Put the program's sources on the path and import the benchmark.
    Raises ImportError unless ``repro`` comes from this checkout's
    ``src/``: an installed copy would measure other code."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    found = os.path.realpath(getattr(repro, "__file__", None) or "")
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"repro was imported from {found or 'a namespace'}, not from {src}")
    import layers
    import session

    return session, layers


def p99(values):
    """The 99th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 1000:
        return None
    return quantiles(values, n=100)[98]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traffic(sess) -> dict:
    """Shares of the traffic properties the README reports."""
    kinds = sess.kinds
    targets = sess.update_targets
    ranked = sess.sizes.get("cells", sess.sizes.get("girders"))
    top = max(1, math.ceil(ranked / 100))
    hot = sum(count for rank, count in targets.items() if rank < top)
    queries = sum(sess.query_access.values())
    repeats = queries - len(sess.query_texts)
    return {
        "updates_to_top_1pct_components": hot / max(1, sum(targets.values())),
        "component_updates": sum(targets.values()),
        "query_access": {path: n / max(1, queries) for path, n in sorted(sess.query_access.items())},
        "repeated_query_texts": repeats / max(1, queries),
        "distinct_query_texts": len(sess.query_texts),
        "create_per_update": kinds["create"] / max(1, kinds["update"]),
        "commands": dict(sorted(kinds.items())),
        # Each checkpoint's phases are also samples of their own; they are
        # shares of the checkpoint, so the session shares add up to 1.
        "session_share": {kind: sum(values) / max(1e-12, sum(sess.round_times))
                          for kind, values in sorted(sess.samples.items())
                          if kind not in CHECKPOINT_PHASES},
        "checkpoint_share": {
            phase: sum(sess.samples[phase]) / max(1e-12, sum(sess.samples["checkpoint"]))
            for phase in CHECKPOINT_PHASES
        },
        "objects": sess.db.count() if sess.db is not None else None,
        "image_bytes": sess.image_bytes[-1] if sess.image_bytes else None,
    }


def end_to_end(sess, setups) -> dict:
    """Commands give a median over all their samples.  Series with one
    sample per round (round times, checkpoint phases) give their mean: the
    median of a dozen samples is set by the machine's speed during the one
    or two rounds in the middle, and the consistency pass grows through
    the run, so its median is always the middle checkpoint's."""
    s = sess.samples
    us = lambda kind: median(s[kind]) * 1e6
    ms = lambda kind: mean(s[kind]) * 1e3
    return {
        "setup_s": (median(setups), len(setups)),
        "session_s": (mean(sess.round_times), len(sess.round_times)),
        "read_p50_us": (us("read"), len(s["read"])),
        "update_p50_us": (us("update"), len(s["update"])),
        "update_p99_us": (p99([v * 1e6 for v in s["update"]]), len(s["update"])),
        "txn_p50_us": (us("txn"), len(s["txn"])),
        "query_p50_us": (us("query"), len(s["query"])),
        "structure_p50_us": (us("structure"), len(s["structure"])),
        "create_p50_us": (us("create"), len(s["create"])),
        "version_p50_us": (us("version"), len(s["version"])),
        "sweep_ms": (ms("sweep"), len(s["sweep"])),
        "save_ms": (ms("save"), len(s["save"])),
        "load_ms": (ms("load"), len(s["load"])),
        "image_bytes_per_object": (median(sess.image_ratios), len(sess.image_ratios)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def run_untraced(session_mod, workload, seed, rounds, workdir, scale="full"):
    setups = []
    sess = None
    for _ in range(SETUPS):
        if sess is not None:
            sess.close()
        # Free the previous set-up's database before timing the next, so
        # that no set-up pays the collector for its predecessor.
        sess = None
        gc.collect()
        sess = session_mod.make_session(workload, seed, workdir, scale=scale)
        setups.append(sess.setup())
    for index in range(rounds):
        sess.run_round(index)
    metrics = end_to_end(sess, setups)
    return sess, metrics


def run_traced(session_mod, layers_mod, workload, seed, rounds, workdir, scale="full"):
    plain = session_mod.make_session(workload, seed, workdir, scale=scale)
    plain.setup()
    for index in range(rounds):
        plain.run_round(index)
    plain_total = sum(plain.round_times)
    plain_checks = plain.checks
    plain_failed = plain.failed
    plain_digest = plain.digest.hexdigest()
    plain.close()
    del plain
    gc.collect()

    recorder = layers_mod.SpanRecorder()
    sess = session_mod.make_session(workload, seed, workdir, scale=scale)
    sess.recorder = recorder
    with layers_mod.Instrumented(recorder):
        sess.setup()
        for index in range(rounds):
            sess.run_round(index)
    if sess.digest.hexdigest() != plain_digest:
        sess.checks.failed += 1
        sess.checks.failures.append("stream: traced and untraced command streams differ")
    metrics, counts = per_layer(sess, layers_mod.SpanTable(recorder))
    metrics["bench.trace_overhead"] = (sum(sess.round_times) / plain_total, "ratio")
    sess.failed += plain_failed
    for family, n in plain_checks.counts.items():
        sess.checks.counts[family] += n
    sess.checks.failed += plain_checks.failed
    sess.checks.failures += plain_checks.failures
    return sess, metrics, counts


def per_layer(sess, table) -> tuple:
    """Per-layer metrics from the spans and the program's own counters."""
    layer = sess.layer
    sel = table.select
    in_session = lambda idx: [i for i in idx if table.names[table.root[i]].startswith("cmd.")]
    mean_us = lambda idx, self_time=False: table.mean(idx, self_time) * 1e6
    mean_ms = lambda idx, self_time=False: table.mean(idx, self_time) * 1e3

    updates = max(1, layer["update:commands"])
    queries = max(1, layer["query:commands"])
    commands = max(1, sum(sess.kinds.values()))
    reads = sel("core.get_member", parent="cmd.read")
    read_calls = sum(table.counts.get(i, 0) for i in reads)
    update_spans = in_session(sel("cmd.update"))
    emit_spans = [i for i in in_session(sel("engine.emit", root="cmd.update"))
                  if not table.in_emit[i]]
    txn_reads = in_session(sel("txn.read"))
    acquires = in_session(sel("txn.acquire", parent="txn.read"))
    refreshes = layer["update:index.maintenance"] + layer["update:view.refreshes"]
    metrics = {
        "ddl.schema_ms": (mean_ms(sel("ddl.schema")), "ms"),
        "core.create_us": (mean_us(sel("core.create"), True), "us"),
        "core.get_member_ns": (table.total(reads) / max(1, read_calls) * 1e9, "ns"),
        "core.set_attribute_us": (mean_us(in_session(sel("core.set_attribute", parent="cmd.update"))), "us"),
        "engine.emit_us": (table.total(emit_spans) / max(1, len(update_spans)) * 1e6, "us"),
        "engine.integrity_ms": (mean_ms(sel("engine.integrity", root="cmd.checkpoint")), "ms"),
        "engine.sweep_constraints_ms": (mean_ms(sel("engine.sweep_constraints", root="cmd.checkpoint")), "ms"),
        "engine.dump_ms": (mean_ms(sel("engine.dump", root="cmd.checkpoint")), "ms"),
        "engine.encode_write_ms": (mean_ms(sel("engine.save", root="cmd.checkpoint"), True), "ms"),
        "engine.read_decode_ms": (mean_ms(sel("engine.load", root="cmd.checkpoint"), True), "ms"),
        "engine.load_image_ms": (mean_ms(sel("engine.load_image", root="cmd.checkpoint")), "ms"),
        "expr.check_constraints_us": (mean_us(in_session(sel("expr.check_constraints", root="cmd.create"))), "us"),
        "query.parse_us": (mean_us(in_session(sel("query.parse", parent="cmd.query"))), "us"),
        "query.plan_us": (mean_us(in_session(sel("query.plan", root="cmd.query"))), "us"),
        "query.execute_us": (mean_us(in_session(sel("query.execute", parent="cmd.query")), True), "us"),
        "query.candidates_per_row": (sess.query_candidates / max(1, sess.query_rows), "ratio"),
        "query.index_maintenance_per_update": (layer["update:index.maintenance"] / updates, "count"),
        "query.view_refreshes_per_update": (layer["update:view.refreshes"] / updates, "count"),
        "query.refreshes_per_inheritor": (refreshes / max(1, layer["update:inheritors"]), "ratio"),
        "query.stale_repairs_per_query": (layer["query:index.stale_repairs"] / queries, "count"),
        "composition.add_component_us": (mean_us(sel("composition.add_component")), "us"),
        "composition.expand_us": (mean_us(in_session(sel("composition.expand", parent="cmd.structure"))), "us"),
        "composition.bom_us": (mean_us(in_session(sel("composition.bom", parent="cmd.structure"))), "us"),
        "composition.where_used_us": (mean_us(in_session(sel("composition.where_used", parent="cmd.structure"))), "us"),
        "versions.derive_us": (mean_us(in_session(sel("versions.derive", parent="cmd.version"))), "us"),
        "versions.diff_us": (mean_us(in_session(sel("versions.diff", parent="cmd.version"))), "us"),
        "versions.merge_us": (mean_us(in_session(sel("versions.merge", parent="cmd.version"))), "us"),
        "txn.read_us": (mean_us(txn_reads), "us"),
        "txn.locks_per_read": (len(acquires) / max(1, len(txn_reads)), "count"),
        "txn.set_us": (mean_us(in_session(sel("txn.set"))), "us"),
        "txn.finish_us": (mean_us(in_session(sel("txn.finish"))), "us"),
        "txn.lock_expansion_us": (mean_us(in_session(sel("txn.lock_expansion"))), "us"),
        "consistency.review_ms": (mean_ms(in_session(sel("consistency.review"))), "ms"),
        "consistency.records_kept": (sess.records_kept(), "count"),
        "obs.audit_records_per_update": (layer["update:audit.appended"] / updates, "count"),
        "obs.spans_per_command": (layer["command:spans"] / commands, "count"),
        "obs.tick_us": (mean_us(sel("obs.tick")), "us"),
        "bench.ref_loop_us": (median(sess.ref_times) * 1e6 if sess.ref_times else 0.0, "us"),
    }
    counts = {
        "objects": sess.db.count(),
        "image_bytes": sess.image_bytes[-1] if sess.image_bytes else 0,
        "objects_created": len(sel("core.create")),
        "update_commands": layer["update:commands"],
        "update_inheritors": layer["update:inheritors"],
        "update_index_maintenance": layer["update:index.maintenance"],
        "update_view_refreshes": layer["update:view.refreshes"],
        "txn_reads": len(txn_reads),
        "txn_read_lock_acquisitions": len(acquires),
        "query_commands": layer["query:commands"],
        "query_parse_cache_hits": layer["query:parse_hits"],
        "query_parse_cache_misses": layer["query:parse_misses"],
        "query_stale_repairs": layer["query:index.stale_repairs"],
        "update_audit_records": layer["update:audit.appended"],
        "records_kept": sess.records_kept(),
        "spans_recorded": len(table.names),
        "stream_digest": sess.digest.hexdigest(),
    }
    return metrics, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        session_mod, layers_mod = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in session_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(session_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    rounds = session_mod.rounds_for(args.workload, args.seconds)
    workdir = session_mod.scratch_dir(OUT)
    try:
        if args.trace:
            # Two passes of half the rounds keep a traced run about as long
            # as an untraced one.
            sess, metrics, counts = run_traced(
                session_mod, layers_mod, args.workload, args.seed, max(1, rounds // 2), workdir
            )
            printed = {name: (value, unit) for name, (value, unit) in metrics.items()}
        else:
            sess, metrics = run_untraced(
                session_mod, args.workload, args.seed, rounds, workdir
            )
            counts = {}
            printed = {name: (value, UNITS[name]) for name, (value, _n) in metrics.items()}
    finally:
        session_mod.remove_dir(workdir)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(sess.round_times),
        "checks": dict(sorted(sess.checks.counts.items())),
        "check_failures": sess.checks.failures,
        "errors": sess.errors,
        "traffic": traffic(sess),
        "counts": counts,
        "ref_loop_us": [t * 1e6 for t in quantiles(sess.ref_times, n=4)]
        if len(sess.ref_times) > 1 else None,
        "metrics": {name: {"value": v[0], "unit": printed[name][1],
                           **({"samples": v[1]} if not args.trace else {})}
                    for name, v in metrics.items()},
    }
    kind = "trace" if args.trace else "result"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-{args.seed}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for name, v in metrics.items():
        samples = "" if args.trace else f"  (n={v[1]})"
        value = "n/a" if v[0] is None else f"{v[0]:.6g}"
        print(f"{args.workload:14s} {name:38s} {value:>14s} {printed[name][1]}{samples}")
    for failure in sess.checks.failures + sess.errors:
        print(f"check: {failure}", file=sys.stderr)

    correct = sess.checks.ok
    result = {
        "correct": correct,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in printed.items()
                    if value is not None and name not in REPORT_ONLY},
    }
    sess.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
