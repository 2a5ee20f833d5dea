"""Command-line interface.

::

    python -m repro schema FILE.ddl        # parse, report notes, pretty-print
    python -m repro check FILE.ddl [IMAGE] # schema + optional image: integrity
    python -m repro stats FILE.ddl IMAGE   # object/type statistics of an image
    python -m repro metrics FILE.ddl IMAGE # observability workout + registry dump
    python -m repro audit FILE.ddl IMAGE   # causal audit log (repro.audit/1)
    python -m repro explain-value FILE.ddl IMAGE OBJECT ATTR  # value provenance
    python -m repro docs FILE.ddl          # Markdown schema documentation
    python -m repro query FILE.ddl IMAGE "select * from X where ..."
    python -m repro paper [gate|steel]     # print the paper's schemas (normalised)
    python -m repro bench [--quick] [--compare]   # unified benchmark harness
    python -m repro profile [--hz N] COMMAND ...  # sampling profiler
    python -m repro slowlog FILE.ddl IMAGE        # slow-operation log
    python -m repro flight FILE.ddl IMAGE         # flight-recorder ring (repro.flight/1)
    python -m repro health FILE.ddl IMAGE         # health verdict (exit 0/1/2)
    python -m repro top FILE.ddl IMAGE            # live rates/health/contention view

``check`` and ``query`` accept ``--trace`` to run with tracing enabled and
print the span tree — with propagation-cone membership under it — to
stderr.  ``OBJECT`` selectors accept ``@space:N`` (a surrogate),
``Name[i]`` (the i-th member of class or type ``Name``), or a bare class /
type name when it holds exactly one object.  Exit status is 0 on success,
1 on schema/image errors, 2 on integrity or constraint violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional

from . import __version__
from .ddl import load_schema
from .ddl.paper import GATE_SCHEMA, STEEL_SCHEMA
from .ddl.unparse import unparse_catalog
from .engine import Database, load
from .engine.integrity import check_integrity
from .errors import ConstraintViolation, ReproError

__all__ = ["main"]


def _load_catalog(db: Database, path: str) -> List[str]:
    with open(path) as f:
        source = f.read()
    load_schema(source, db.catalog)
    return list(getattr(db.catalog, "ddl_notes", []))


def _open_image(
    args: argparse.Namespace, observe: bool = False, **options
) -> Database:
    """A database named ``cli`` holding ``args.schema`` and ``args.image``.

    With ``observe``, observability is attached before loading, with
    ``options`` forwarded to :meth:`Database.enable_observability`.
    """
    db = Database("cli")
    if observe:
        db.enable_observability(**options)
    _load_catalog(db, args.schema)
    load(args.image, db)
    return db


def _workout(args: argparse.Namespace, db: Database) -> None:
    """One round of the standard workout, unless ``--no-exercise``."""
    if not args.no_exercise:
        from .obs.report import exercise

        exercise(db)


def cmd_schema(args: argparse.Namespace) -> int:
    db = Database("cli")
    notes = _load_catalog(db, args.schema)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(unparse_catalog(db.catalog), end="")
    return 0


def _print_trace(db: Database) -> None:
    from .obs.tracing import format_span_tree

    tree = format_span_tree(db.obs.tracer)
    if tree:
        print("trace:", file=sys.stderr)
        print(tree, file=sys.stderr)
    audit = db.obs.audit
    if audit is None:
        return
    cones = [cone for cone in audit.cones() if cone.breadth]
    if not cones:
        return
    print("propagation cones:", file=sys.stderr)
    for cone in cones:
        root = cone.root
        print(
            f"  trace #{cone.trace} {root.kind} {root.subject!r} "
            f"breadth={cone.breadth} depth={cone.depth}",
            file=sys.stderr,
        )
        for member in cone.members():
            print(f"    reached {member!r}", file=sys.stderr)


def _find_object(db: Database, selector: str):
    """Resolve an OBJECT selector: ``@space:N``, ``Name[i]``, or a bare
    class/type name holding exactly one object."""
    from .errors import UnknownTypeError

    selector = selector.strip()
    if selector.startswith("@"):
        for obj in db.objects():
            if str(obj.surrogate) == selector:
                return obj
        raise ReproError(f"no object with surrogate {selector}")

    name, index = selector, None
    if selector.endswith("]") and "[" in selector:
        name, _, rest = selector.partition("[")
        digits = rest[:-1]
        if not digits.isdigit():
            raise ReproError(f"bad selector {selector!r}: expected Name[i]")
        index = int(digits)

    pool = None
    try:
        pool = db.class_(name).members()
    except UnknownTypeError:
        try:
            pool = db.objects_of_type(name)
        except UnknownTypeError:
            raise ReproError(
                f"{name!r} names neither a class nor a type"
            ) from None
    if index is None:
        if len(pool) == 1:
            return pool[0]
        raise ReproError(
            f"{name!r} holds {len(pool)} object(s); "
            f"select one with {name}[i] or a @space:N surrogate"
        )
    if not 0 <= index < len(pool):
        raise ReproError(
            f"{selector!r} out of range: {name!r} holds {len(pool)} object(s)"
        )
    return pool[index]


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis import diagnostics_from_violations, make, to_json

    db = Database("cli", observe=args.trace)
    notes = _load_catalog(db, args.schema)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    if args.image:
        load(args.image, db)
        print(f"loaded {db.count()} objects from {args.image}")
    integrity = diagnostics_from_violations(check_integrity(db))
    for diagnostic in integrity:
        print(f"integrity: {diagnostic.render()}", file=sys.stderr)
    constraints = []
    for obj in db.objects():
        if obj.parent is None and not obj.deleted:
            try:
                obj.check_constraints(deep=True)
            except ConstraintViolation as exc:
                constraints.append(make("REP006", str(exc), subject=repr(obj)))
                print(f"constraint: {exc}", file=sys.stderr)
    if args.trace:
        _print_trace(db)
    if getattr(args, "json", False):
        print(json.dumps(to_json(integrity + constraints), indent=2))
    if integrity or constraints:
        print(
            f"FAILED: {len(integrity)} integrity violation(s), "
            f"{len(constraints)} constraint violation(s)"
        )
        return 2
    print("OK: schema loads, image consistent, all constraints hold")
    return 0


def _split_codes(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    codes = []
    for value in values:
        codes.extend(part.strip() for part in value.split(",") if part.strip())
    return codes or None


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        analyze,
        filter_diagnostics,
        render_text,
        run_query_rules,
        severity_rank,
        sort_diagnostics,
        to_json,
        to_sarif,
        verify_against_runtime,
    )

    if args.engine:
        return _lint_engine(args)
    if args.schema is None:
        print(
            "error: repro lint needs a schema file (or --engine)",
            file=sys.stderr,
        )
        return 1

    with open(args.schema) as f:
        source = f.read()

    if args.verify:
        report = verify_against_runtime(
            source, source_path=args.schema, strict=args.strict
        )
        print(report.render())
        return 0 if report.ok else 2

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    queries = None
    if args.queries:
        with open(args.queries) as f:
            queries = [
                line.strip()
                for line in f
                if line.strip() and not line.strip().startswith("#")
            ]

    if args.image:
        # Live-database lint: catalog model + REP0xx integrity (+ REP5xx
        # with queries).  Source line numbers are not available here.
        db = Database("cli")
        load_schema(source, db.catalog)
        load(args.image, db)
        findings = analyze(db, queries=queries, select=select, ignore=ignore)
    else:
        findings = analyze(
            source, source_path=args.schema, select=select, ignore=ignore
        )
        if queries:
            db = Database("cli")
            load_schema(source, db.catalog)
            findings = sort_diagnostics(
                findings
                + filter_diagnostics(
                    run_query_rules(db, queries), select, ignore
                )
            )

    if args.format == "json":
        print(json.dumps(to_json(findings), indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
    else:
        print(render_text(findings))

    if args.fail_on != "never":
        threshold = severity_rank(args.fail_on)
        if any(severity_rank(d.severity) <= threshold for d in findings):
            return 2
    return 0


def _lint_engine(args: argparse.Namespace) -> int:
    """``repro lint --engine``: the REP6xx self-lint + lock-order pass."""
    from .analysis import (
        analyze_lock_order,
        filter_diagnostics,
        lint_engine,
        render_text,
        severity_rank,
        sort_diagnostics,
        to_json,
        to_sarif,
        verify_engine_invariants,
    )

    if args.verify:
        report = verify_engine_invariants()
        print(report.render())
        return 0 if report.ok else 2

    result = lint_engine(args.engine_root)
    lock_report = analyze_lock_order(args.engine_root)
    findings = sort_diagnostics(filter_diagnostics(
        result.diagnostics + lock_report.diagnostics(),
        _split_codes(args.select),
        _split_codes(args.ignore),
    ))

    if args.format == "json":
        print(json.dumps(to_json(findings), indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
    else:
        print(render_text(findings))
        print(
            f"engine lint: {result.files_scanned} files, "
            f"{len(lock_report.locks)} mutex(es), "
            f"{len(lock_report.cycles)} lock-order cycle(s), "
            f"{result.suppressed} pragma-suppressed",
            file=sys.stderr,
        )

    if args.fail_on != "never":
        threshold = severity_rank(args.fail_on)
        if any(severity_rank(d.severity) <= threshold for d in findings):
            return 2
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    db = _open_image(args)
    by_type: Counter = Counter(obj.object_type.name for obj in db.objects())
    print(f"objects: {db.count()}")
    print(f"types in catalog: {len(db.catalog)}")
    for name, count in sorted(by_type.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name}: {count}")
    for class_name, extent in sorted(db.classes().items()):
        print(f"class {class_name}: {len(extent)} member(s)")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .query import run_query

    db = _open_image(args, observe=args.trace)
    result = run_query(db, args.query, explain=args.explain)
    if args.explain:
        print(result.explain())
        print()
    print(" | ".join(result.columns))
    for row in result.rows:
        print(" | ".join(repr(value) for value in row))
    print(f"({len(result)} row(s))")
    if args.trace:
        _print_trace(db)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.report import render_table, snapshot

    db = _open_image(args, observe=True)
    _workout(args, db)
    if args.watch is not None:
        return _watch_loop(args, db, interval=args.watch)
    snap = snapshot(db, include_events=not args.no_events)
    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        print(render_table(snap))
        if args.events:
            events = db.obs.audit.events()
            print()
            print(f"event ring ({len(events)} bus events in the audit ring):")
            for event in events:
                cause = f" <-#{event.cause}" if event.cause is not None else ""
                print(
                    f"  #{event.seq} trace={event.trace} {event.kind} "
                    f"{event.subject!r}{cause}"
                )
    return 0


def _watch_loop(
    args: argparse.Namespace,
    db: Database,
    interval: float,
    top: bool = False,
    limit: int = 20,
) -> int:
    """Tick the flight recorder every ``interval`` seconds and render.

    The shared loop behind ``repro metrics --watch`` and ``repro top``:
    one workout round (:func:`_workout`) and one
    :meth:`~repro.obs.recorder.FlightRecorder.tick` per frame, the
    sample rendered through the recorder's own renderer.  ``top`` adds
    the health verdict and the lock table's contention snapshot and
    clears the screen between frames on a tty.  Runs until ``--count``
    frames (None = until Ctrl-C).
    """
    import time as _time

    from .obs.recorder import render_sample

    count = args.count
    recorder = db.obs.recorder
    recorder.tick()
    frames = 0
    try:
        while count is None or frames < count:
            _time.sleep(interval)
            _workout(args, db)
            sample = recorder.tick()
            if top and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            if top:
                report = db.obs.health.evaluate()
                print(
                    f"repro top — db={db.name}  "
                    f"health={report.status.upper()}  "
                    f"interval={interval:g}s"
                )
                print()
            print(render_sample(sample, limit=limit))
            if top:
                firing = db.obs.health.evaluate().firing()
                if firing:
                    print("health:")
                    for result in firing:
                        print(
                            f"  [{result.status.upper()}] {result.name}: "
                            f"{result.reason}"
                        )
                manager = db.transactions
                if manager is not None:
                    snap = manager.lock_table.contention_snapshot()
                    print(
                        f"locks: {snap['granted']} granted on "
                        f"{snap['locked_objects']} object(s) by "
                        f"{snap['holding_transactions']} txn(s), "
                        f"{snap['waiting']} waiting"
                    )
                    for waiter, holder in snap["waits_for"]:
                        print(f"  txn {waiter} waits for txn {holder}")
            print()
            frames += 1
    except KeyboardInterrupt:
        pass
    return 0


def _ticked(args: argparse.Namespace) -> Database:
    """An observed image after a baseline recorder tick and ``--ticks``
    workout-then-tick rounds (``repro flight`` and ``repro health``)."""
    db = _open_image(args, observe=True)
    recorder = db.obs.recorder
    recorder.tick()
    for _ in range(args.ticks):
        _workout(args, db)
        recorder.tick()
    return db


def cmd_flight(args: argparse.Namespace) -> int:
    from .obs.recorder import render_sample

    db = _ticked(args)
    recorder = db.obs.recorder
    if args.json:
        print(json.dumps(recorder.snapshot(), indent=2))
        return 0
    print(
        f"flight recorder: {len(recorder)} sample(s) buffered "
        f"(capacity {recorder.capacity}, {recorder.ticks} tick(s) taken)"
    )
    latest = recorder.latest()
    if latest is not None:
        print(render_sample(latest, limit=args.limit))
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    report = _ticked(args).obs.health.evaluate()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def cmd_top(args: argparse.Namespace) -> int:
    return _watch_loop(
        args,
        _open_image(args, observe=True),
        interval=args.interval,
        top=True,
        limit=args.limit,
    )


def cmd_audit(args: argparse.Namespace) -> int:
    from .obs.export import audit_snapshot, render_audit_table

    db = _open_image(args, observe=True)
    _workout(args, db)
    snap = audit_snapshot(
        db, kind=args.kind, subject=args.object, trace=args.trace_id
    )
    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        print(render_audit_table(snap))
    return 0


def cmd_explain_value(args: argparse.Namespace) -> int:
    db = _open_image(args)
    obj = _find_object(db, args.object)
    provenance = db.explain_value(obj, args.attribute)
    if args.json:
        print(json.dumps(provenance.as_dict(), indent=2))
    else:
        print(provenance.render())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .obs import bench as bench_harness

    def progress(line: str) -> None:
        print(line, file=sys.stderr)

    suites, unadapted = bench_harness.discover_suites(
        args.dir, quick=args.quick, only=args.only or None
    )
    for stem in unadapted:
        print(f"note: {stem} has no register() adapter, skipped", file=sys.stderr)
    if args.match:
        for suite in suites:
            suite.cases = [c for c in suite.cases if args.match in c.name]
        suites = [s for s in suites if s.cases]
    if args.list:
        for suite in suites:
            for case in suite.cases:
                print(f"{suite.group}::{case.name}")
        return 0
    if not suites:
        print("error: no benchmark suites matched", file=sys.stderr)
        return 1

    mode = "quick" if args.quick else "full"
    runner = bench_harness.Runner(repeats=args.repeats, quick=args.quick)
    results = runner.run(suites, progress=progress)

    exit_code = 0
    if args.compare is not None:
        prior_path = (
            args.compare
            if args.compare is not True
            else bench_harness.latest_snapshot(args.root)
        )
        prior = None
        if prior_path is None:
            print(
                f"compare: no prior BENCH_*.json under {args.root!r}; "
                "this run seeds the trajectory",
                file=sys.stderr,
            )
        else:
            try:
                prior = bench_harness.load_snapshot(prior_path)
            except (ValueError, OSError) as exc:
                # An empty or malformed baseline must not fail the run:
                # report it, skip the gate, and let this run re-seed.
                print(
                    f"compare: baseline {prior_path} is unusable ({exc}); "
                    "skipping the regression gate",
                    file=sys.stderr,
                )
        if prior is not None:
            threshold = args.threshold / 100.0
            current = bench_harness.make_snapshot(results, seq=0, mode=mode)
            comparison = bench_harness.compare_snapshots(
                prior, current, threshold=threshold
            )
            if not comparison.ok and args.confirm:
                # Repeat-to-confirm: re-measure only the suspects before
                # failing, so scheduler noise does not trip the gate.
                results = bench_harness.confirm_regressions(
                    comparison, suites, runner, results,
                    rounds=args.confirm, progress=progress,
                )
                current = bench_harness.make_snapshot(results, seq=0, mode=mode)
                comparison = bench_harness.compare_snapshots(
                    prior, current, threshold=threshold
                )
            prior_commit = prior.get("fingerprint", {}).get("commit")
            print(f"prior: {prior_path} (commit {prior_commit or 'unknown'})")
            print(comparison.render())
            if not comparison.ok and not args.warn_only:
                exit_code = 2

    if not args.no_emit:
        seq, path = bench_harness.next_snapshot_path(args.root)
        snap = bench_harness.make_snapshot(results, seq=seq, mode=mode, runner=runner)
        bench_harness.write_snapshot(path, snap)
        print(f"wrote {path} ({len(snap['results'])} case(s), {mode} mode)")
        if args.json:
            print(json.dumps(snap, indent=2, sort_keys=True))
    elif args.json:
        snap = bench_harness.make_snapshot(results, seq=0, mode=mode, runner=runner)
        print(json.dumps(snap, indent=2, sort_keys=True))
    return exit_code


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profiler import SamplingProfiler

    command = list(args.profiled)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("error: repro profile needs a command to run", file=sys.stderr)
        return 1
    if command[0] == "profile":
        print("error: refusing to profile the profiler", file=sys.stderr)
        return 1
    profiled = build_parser().parse_args(command)
    profiler = SamplingProfiler(interval=1.0 / args.hz)
    profiler.start()
    try:
        code = profiled.func(profiled)
    finally:
        profiler.stop()
    print(profiler.render_top(limit=args.top), file=sys.stderr)
    collapsed = "\n".join(profiler.collapsed())
    if args.collapsed:
        with open(args.collapsed, "w") as f:
            f.write(collapsed + "\n")
        print(f"wrote collapsed stacks to {args.collapsed}", file=sys.stderr)
    else:
        print(collapsed)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(profiler.as_dict(), f, indent=1)
        print(f"wrote {args.out} (repro.profile/1)", file=sys.stderr)
    return code


def cmd_race(args: argparse.Namespace) -> int:
    from .obs import race

    command = list(args.raced)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("error: repro race needs a command to run", file=sys.stderr)
        return 1
    if command[0] == "race":
        print("error: refusing to sanitize the sanitizer", file=sys.stderr)
        return 1
    raced = build_parser().parse_args(command)
    sanitizer = race.enable(stack_depth=args.stack_depth)
    try:
        code = raced.func(raced)
    finally:
        race.disable()
    if args.json:
        print(json.dumps(sanitizer.snapshot(), indent=2))
    else:
        print(sanitizer.render(), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sanitizer.snapshot(), f, indent=1)
        print(f"wrote {args.out} (repro.race/1)", file=sys.stderr)
    if sanitizer.reports:
        return 2
    return code


def cmd_slowlog(args: argparse.Namespace) -> int:
    from .obs.slowlog import DEFAULT_BUDGETS
    from .query import run_query

    budgets = None
    if args.budget_ms is not None:
        budgets = {kind: args.budget_ms / 1000.0 for kind in DEFAULT_BUDGETS}
    db = _open_image(args, observe=True, tracing=False, slow_budgets=budgets)
    if args.query:
        run_query(db, args.query)
    else:
        _workout(args, db)
    slowlog = db.obs.slowlog
    if args.json:
        print(json.dumps(slowlog.snapshot(args.kind, args.since), indent=2))
    else:
        print(slowlog.render(args.kind, args.since))
    return 0


def cmd_docs(args: argparse.Namespace) -> int:
    from .ddl.docgen import document_catalog

    db = Database("cli")
    _load_catalog(db, args.schema)
    print(document_catalog(db.catalog, title=args.title))
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    source = GATE_SCHEMA if args.which == "gate" else STEEL_SCHEMA
    if args.raw:
        print(source)
        return 0
    catalog = load_schema(source)
    print(unparse_catalog(catalog), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Complex and composite objects for CAD/CAM databases "
        "(Wilkes/Klahold/Schlageter, ICDE 1989).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Parents: the positionals of every command that loads an image, and
    # the flag of those that run the standard workout on it.
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("schema", help="path to a .ddl schema file")
    image.add_argument("image", help="JSON image to load")
    workout = argparse.ArgumentParser(add_help=False)
    workout.add_argument(
        "--no-exercise",
        action="store_true",
        help="skip the standard workout; observe only what loading produced",
    )

    p_schema = sub.add_parser("schema", help="parse a DDL file and pretty-print it")
    p_schema.add_argument("schema", help="path to a .ddl schema file")
    p_schema.set_defaults(func=cmd_schema)

    p_check = sub.add_parser("check", help="validate a schema and optional image")
    p_check.add_argument("schema", help="path to a .ddl schema file")
    p_check.add_argument("image", nargs="?", help="optional JSON image to load")
    p_check.add_argument(
        "--trace", action="store_true", help="print a span tree to stderr"
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="also emit the findings as repro.lint/1 JSON on stdout",
    )
    p_check.set_defaults(func=cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="static schema analysis: predict runtime failures before "
        "execution (REP1xx-REP5xx), or lint a live image (adds REP0xx)",
    )
    p_lint.add_argument(
        "schema",
        nargs="?",
        help="path to a .ddl schema file (omit with --engine)",
    )
    p_lint.add_argument(
        "image",
        nargs="?",
        help="optional JSON image: lint the live database instead of the "
        "source (adds the REP0xx integrity diagnostics)",
    )
    p_lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these codes/prefixes (comma-separated; a prefix "
        "like REP2 selects all REP2xx)",
    )
    p_lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="suppress these codes/prefixes (comma-separated)",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (sarif emits SARIF 2.1.0)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "advice", "never"],
        default="error",
        help="exit 2 when a finding at or above this severity remains "
        "(default: error)",
    )
    p_lint.add_argument(
        "--queries",
        help="file of workload queries (one per line, # comments) for the "
        "REP5xx advisories",
    )
    p_lint.add_argument(
        "--verify",
        action="store_true",
        help="differential mode: cross-check the static predictions "
        "against the runtime oracles on a synthesized instance",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="with --verify: disable the REP100 safety net so only "
        "specific rules may predict build failures",
    )
    p_lint.add_argument(
        "--engine",
        action="store_true",
        help="lint the engine's own source instead of a schema: the "
        "REP6xx concurrency invariants plus the static lock-order "
        "analysis (with --verify: run the seeded-defect differential "
        "harness)",
    )
    p_lint.add_argument(
        "--engine-root",
        metavar="PATH",
        help="source tree to scan with --engine (default: the installed "
        "repro package)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_stats = sub.add_parser(
        "stats", parents=[image], help="statistics of a database image"
    )
    p_stats.set_defaults(func=cmd_stats)

    p_query = sub.add_parser(
        "query", parents=[image], help="run a select query against an image"
    )
    p_query.add_argument("query", help="select … from … where …")
    p_query.add_argument(
        "--trace", action="store_true", help="print a span tree to stderr"
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen access plan (index vs scan, estimated vs "
        "actual rows) before the rows",
    )
    p_query.set_defaults(func=cmd_query)

    p_metrics = sub.add_parser(
        "metrics",
        parents=[image, workout],
        help="load an image with observability on, run the standard "
        "workout, and dump the metrics registry",
    )
    p_metrics.add_argument(
        "--json", action="store_true", help="emit the repro.metrics/1 JSON"
    )
    p_metrics.add_argument(
        "--no-events",
        action="store_true",
        help="omit the bus events kept in the audit ring",
    )
    p_metrics.add_argument(
        "--events",
        action="store_true",
        help="also dump every bus event the audit ring keeps "
        "(seq, kind, subject, cause)",
    )
    p_metrics.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="interval mode: tick the flight recorder every SECONDS and "
        "render per-second rates instead of the one-shot dump",
    )
    p_metrics.add_argument(
        "--count",
        type=int,
        metavar="N",
        help="with --watch: stop after N frames (default: until Ctrl-C)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_audit = sub.add_parser(
        "audit",
        parents=[image, workout],
        help="load an image with observability on, run the standard "
        "workout, and dump the causal audit log (repro.audit/1)",
    )
    p_audit.add_argument(
        "--json", action="store_true", help="emit the repro.audit/1 JSON"
    )
    p_audit.add_argument(
        "--kind", help="only records of this kind (e.g. attribute_updated)"
    )
    p_audit.add_argument(
        "--object",
        help="only records whose subject's repr contains this substring",
    )
    p_audit.add_argument(
        "--trace-id", type=int, help="only records of this causal trace"
    )
    p_audit.set_defaults(func=cmd_audit)

    p_explain = sub.add_parser(
        "explain-value",
        parents=[image],
        help="show where an attribute's value comes from: holder object, "
        "inheritance path, permeability decisions, epochs, indexes",
    )
    p_explain.add_argument(
        "object", help="object selector: @space:N, Name[i], or a unique name"
    )
    p_explain.add_argument("attribute", help="member name to explain")
    p_explain.add_argument(
        "--json", action="store_true", help="emit the provenance as JSON"
    )
    p_explain.set_defaults(func=cmd_explain_value)

    p_docs = sub.add_parser("docs", help="generate Markdown schema documentation")
    p_docs.add_argument("schema", help="path to a .ddl schema file")
    p_docs.add_argument("--title", default="Schema reference")
    p_docs.set_defaults(func=cmd_docs)

    p_paper = sub.add_parser("paper", help="print the paper's built-in schemas")
    p_paper.add_argument("which", choices=["gate", "steel"])
    p_paper.add_argument(
        "--raw", action="store_true", help="print the verbatim listing text"
    )
    p_paper.set_defaults(func=cmd_paper)

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark suites through the unified harness and "
        "emit a BENCH_<seq>.json (repro.bench/1) snapshot",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="CI regime: fewer repeats, shorter calibration, smaller scales",
    )
    p_bench.add_argument(
        "--compare",
        nargs="?",
        const=True,
        default=None,
        metavar="SNAPSHOT",
        help="compare against a prior snapshot (default: the latest "
        "BENCH_*.json under --root) and exit 2 on confirmed regressions",
    )
    p_bench.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="relative regression threshold in percent (default: 25)",
    )
    p_bench.add_argument(
        "--confirm",
        type=int,
        default=2,
        metavar="N",
        help="re-run suspected regressions up to N more times before "
        "failing (0 disables; default: 2)",
    )
    p_bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (advisory CI gate)",
    )
    p_bench.add_argument(
        "--only",
        action="append",
        metavar="TOKEN",
        help="only suites whose module stem contains TOKEN (repeatable; "
        "e.g. --only e14)",
    )
    p_bench.add_argument(
        "--match",
        metavar="SUBSTR",
        help="only cases whose name contains SUBSTR",
    )
    p_bench.add_argument(
        "--dir",
        default="benchmarks",
        help="directory of bench_*.py suites (default: benchmarks)",
    )
    p_bench.add_argument(
        "--root",
        default=".",
        help="where BENCH_*.json snapshots live (default: repo root '.')",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=5, help="measurements per case (default: 5)"
    )
    p_bench.add_argument(
        "--no-emit",
        action="store_true",
        help="measure and compare without writing a new snapshot",
    )
    p_bench.add_argument(
        "--list", action="store_true", help="list discovered cases and exit"
    )
    p_bench.add_argument(
        "--json",
        action="store_true",
        help="also print the snapshot document on stdout",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_profile = sub.add_parser(
        "profile",
        help="run another repro command under the sampling wall-clock "
        "profiler; collapsed stacks on stdout, hot-frame table on stderr",
    )
    p_profile.add_argument(
        "--hz",
        type=float,
        default=1000.0,
        help="sampling frequency (default: 1000)",
    )
    p_profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the hot-frame table (default: 15)",
    )
    p_profile.add_argument(
        "--collapsed",
        metavar="PATH",
        help="write collapsed stacks here instead of stdout",
    )
    p_profile.add_argument(
        "--out",
        metavar="PATH",
        help="also write the full repro.profile/1 JSON document here",
    )
    p_profile.add_argument(
        "profiled",
        nargs=argparse.REMAINDER,
        metavar="COMMAND ...",
        help="the repro command line to profile, e.g. "
        "bench --quick --only e14",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_race = sub.add_parser(
        "race",
        help="run another repro command under the lockset race sanitizer; "
        "race reports on stderr, exit 2 if any race was observed",
    )
    p_race.add_argument(
        "--stack-depth",
        type=int,
        default=12,
        help="frames to keep per access stack (default: 12)",
    )
    p_race.add_argument(
        "--json",
        action="store_true",
        help="print the repro.race/1 snapshot to stdout instead of the "
        "rendered report",
    )
    p_race.add_argument(
        "--out",
        metavar="PATH",
        help="also write the repro.race/1 JSON document here",
    )
    p_race.add_argument(
        "raced",
        nargs=argparse.REMAINDER,
        metavar="COMMAND ...",
        help="the repro command line to sanitize, e.g. "
        "bench --quick --only e21",
    )
    p_race.set_defaults(func=cmd_race)

    p_slowlog = sub.add_parser(
        "slowlog",
        parents=[image, workout],
        help="load an image with the slow-operation log attached, run a "
        "query or the standard workout, and dump what blew its budget",
    )
    p_slowlog.add_argument(
        "--query", help="run this query instead of the standard workout"
    )
    p_slowlog.add_argument(
        "--budget-ms",
        type=float,
        metavar="MS",
        help="override every per-kind latency budget with MS milliseconds",
    )
    p_slowlog.add_argument(
        "--json", action="store_true", help="emit the repro.slowlog/1 JSON"
    )
    p_slowlog.add_argument(
        "--kind",
        help="only operations of this kind (query, propagation, "
        "expansion, txn)",
    )
    p_slowlog.add_argument(
        "--since",
        type=int,
        metavar="SEQ",
        help="only operations at or after this global sequence number "
        "(the #seq shared with repro audit records)",
    )
    p_slowlog.set_defaults(func=cmd_slowlog)

    p_flight = sub.add_parser(
        "flight",
        parents=[image, workout],
        help="load an image with observability on, tick the flight "
        "recorder across workout rounds, and dump the sample ring "
        "(repro.flight/1)",
    )
    p_flight.add_argument(
        "--ticks",
        type=int,
        default=3,
        metavar="N",
        help="workout/tick rounds after the baseline sample (default: 3)",
    )
    p_flight.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="rate rows in the text rendering (default: 20)",
    )
    p_flight.add_argument(
        "--json", action="store_true", help="emit the repro.flight/1 JSON"
    )
    p_flight.set_defaults(func=cmd_flight)

    p_health = sub.add_parser(
        "health",
        parents=[image, workout],
        help="evaluate the health rules over flight-recorder samples; "
        "exit 0 ok, 1 degraded, 2 critical",
    )
    p_health.add_argument(
        "--ticks",
        type=int,
        default=3,
        metavar="N",
        help="workout/tick rounds before evaluating (default: 3)",
    )
    p_health.add_argument(
        "--json", action="store_true", help="emit the repro.health/1 JSON"
    )
    p_health.set_defaults(func=cmd_health)

    p_top = sub.add_parser(
        "top",
        parents=[image, workout],
        help="live terminal view: per-second rates, health verdict and "
        "lock contention, refreshed per interval",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    p_top.add_argument(
        "--count",
        type=int,
        metavar="N",
        help="stop after N frames (default: until Ctrl-C)",
    )
    p_top.add_argument(
        "--limit",
        type=int,
        default=15,
        metavar="N",
        help="rate rows per frame (default: 15)",
    )
    p_top.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
