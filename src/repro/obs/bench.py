"""The benchmark harness behind ``repro bench``.

Every timed case of the repo is written once, in the ``register(suite)``
function of a ``benchmarks/bench_*.py`` module, and this module is the
only thing that times them:

* **One timing discipline.**  The :class:`Runner` applies the same
  warmup, timeit-style inner-loop calibration, repetition and GC pinning
  to every case and reports min/median/mean/stdev over per-iteration
  seconds.  The headline metric is **min** — the least
  noise-contaminated estimator of the true cost of a deterministic
  operation.  A case whose timed call consumes its state (a delete, an
  incorporation into a fresh composite) registers with ``setup=True``
  and gets an untimed setup before each timed call.

* **Checked answers.**  A factory asserts on its case's answer before
  returning the thunk, and the harness makes one more untimed call; a
  factory, check or first call that raises stops the run with
  :class:`CaseError` before the case is timed, so a wrong answer is never
  measured.  ``pytest benchmarks`` builds every case of both modes the
  same way (``benchmarks/conftest.py``).

* **Versioned in-repo snapshots.**  :func:`write_snapshot` emits
  ``BENCH_<seq>.json`` (``repro.bench/1`` schema) at the repo root with a
  machine/commit fingerprint, so the perf trajectory is tracked by git
  next to the code that moved it; ``benchmarks/report.py`` renders
  EXPERIMENTS.md from one snapshot.

* **Noise-aware regression gating.**  :func:`compare_snapshots` reports
  per-case ratios against a prior snapshot with a relative threshold and
  an absolute noise floor; the CLI confirms suspected regressions by
  re-measuring just those cases in fresh processes
  (:func:`confirm_regressions`) before failing, so neither scheduler
  noise nor a slow mode of one process fails the gate.

Everything is stdlib.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "BenchSuite",
    "CaseError",
    "CaseResult",
    "Runner",
    "Comparison",
    "Delta",
    "alternating_best",
    "discover_suites",
    "fingerprint",
    "make_snapshot",
    "validate_snapshot",
    "snapshot_paths",
    "next_snapshot_path",
    "load_snapshot",
    "write_snapshot",
    "latest_snapshot",
    "compare_snapshots",
    "dirty_warning",
    "measure_in_fresh_process",
    "confirm_regressions",
]

BENCH_SCHEMA_VERSION = "repro.bench/1"

#: BENCH_0001.json, BENCH_0002.json, ... at the repository root.
_SNAPSHOT_RE = re.compile(r"^BENCH_(\d{4,})\.json$")


# ---------------------------------------------------------------------------
# cases and suites
# ---------------------------------------------------------------------------


class CaseError(Exception):
    """A case could not be built: its factory, answer check or first call raised."""


@dataclass
class BenchCase:
    """One registered benchmark: a lazy ``make`` returning what is timed.

    ``make`` runs the case's setup (build the database, warm the caches,
    check the answer) and returns the zero-argument thunk the runner
    times, so setup cost never pollutes the measurement and skipped cases
    (quick mode) never pay their setup.  ``number`` pins the inner-loop
    count; ``None`` lets the runner calibrate it.

    With ``setup=True``, ``make`` returns a pair ``(setup, fn)`` instead:
    every round calls ``setup()`` untimed and times one ``fn(state)`` on
    its result.
    """

    name: str
    group: str
    make: Callable[[], Any]
    number: Optional[int] = None
    setup: bool = False

    def build(self) -> Tuple[Optional[Callable[[], Any]], Callable[..., Any]]:
        """Run the factory and one untimed call of what it returns.

        Returns ``(setup or None, fn)``.  Raises :class:`CaseError` when
        the factory, its answer check or that first call fails.
        """
        try:
            made = self.make()
            setup, fn = made if self.setup else (None, made)
            fn() if setup is None else fn(setup())
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            raise CaseError(
                f"{self.group}::{self.name}: {type(exc).__name__}: {exc} "
                f"(at {where.filename}:{where.lineno})"
            ) from exc
        return setup, fn


class BenchSuite:
    """The registration surface handed to each module's ``register()``.

    ``suite.quick`` tells the module which scale regime is being run, so
    heavy parameterisations (50k-object libraries, fan-out 100) can drop
    to CI-friendly sizes without forking the benchmark logic::

        def register(suite):
            sizes = [2_000] if suite.quick else [10_000, 50_000]
            for n in sizes:
                @suite.case(f"eq_indexed[{n}]")
                def make(n=n):
                    db = parts_db(n)
                    result = run_with(db, QUERY, True)
                    assert len(result) == 100
                    return lambda: run_with(db, QUERY, True)

    ``directory`` is the benchmark directory the suite's module was
    discovered in; confirmation re-imports it from there in a fresh
    process.
    """

    def __init__(
        self, group: str, quick: bool = False, directory: Optional[str] = None
    ):
        self.group = group
        self.quick = quick
        self.directory = directory
        self.cases: List[BenchCase] = []

    def case(
        self,
        name: str,
        make: Optional[Callable[[], Any]] = None,
        *,
        number: Optional[int] = None,
        setup: bool = False,
    ):
        """Register a case; usable directly or as a decorator on ``make``."""
        if make is not None:
            self.cases.append(BenchCase(name, self.group, make, number, setup))
            return make

        def decorate(fn: Callable[[], Any]):
            self.cases.append(BenchCase(name, self.group, fn, number, setup))
            return fn

        return decorate

    def __len__(self) -> int:
        return len(self.cases)

    def __repr__(self) -> str:
        mode = "quick" if self.quick else "full"
        return f"<BenchSuite {self.group} {mode} cases={len(self.cases)}>"


def discover_suites(
    bench_dir: str,
    quick: bool = False,
    only: Optional[Iterable[str]] = None,
) -> Tuple[List[BenchSuite], List[str]]:
    """Import every ``bench_*.py`` under ``bench_dir`` and collect suites.

    Modules are imported as ``<dirname>.<stem>`` (the directory's parent
    goes on ``sys.path``), so their own ``from benchmarks.bench_e14_…``
    imports keep working.  ``only`` filters module stems by substring
    (``e14`` matches ``bench_e14_resolution``).  Returns the registered
    suites plus the stems of modules that expose no ``register``.
    """
    directory = Path(bench_dir).resolve()
    if not directory.is_dir():
        raise FileNotFoundError(f"benchmark directory {bench_dir!r} not found")
    parent = str(directory.parent)
    if parent not in sys.path:
        sys.path.insert(0, parent)
    suites: List[BenchSuite] = []
    unadapted: List[str] = []
    for path in sorted(directory.glob("bench_*.py")):
        stem = path.stem
        if only and not any(token in stem for token in only):
            continue
        module = importlib.import_module(f"{directory.name}.{stem}")
        register = getattr(module, "register", None)
        if register is None:
            unadapted.append(stem)
            continue
        suite = BenchSuite(stem, quick=quick, directory=str(directory))
        register(suite)
        suites.append(suite)
    return suites, unadapted


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    """Statistics of one timed case (per-iteration seconds)."""

    name: str
    group: str
    number: int
    repeats: int
    warmup: int
    min: float
    median: float
    mean: float
    stdev: float
    times: List[float] = field(default_factory=list, repr=False)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "group": self.group,
            "number": self.number,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "min": self.min,
            "median": self.median,
            "mean": self.mean,
            "stdev": self.stdev,
        }

    def merge_best(self, other: "CaseResult") -> "CaseResult":
        """Fold a confirmation re-run in, keeping the best (lowest) stats.

        Used by repeat-to-confirm: the true cost of a deterministic
        operation is bounded above by every observation, so the min over
        both runs is the better estimate and median/mean keep whichever
        run was less contaminated.
        """
        return CaseResult(
            name=self.name,
            group=self.group,
            number=self.number,
            repeats=self.repeats + other.repeats,
            warmup=self.warmup,
            min=min(self.min, other.min),
            median=min(self.median, other.median),
            mean=min(self.mean, other.mean),
            stdev=min(self.stdev, other.stdev),
            times=self.times + other.times,
        )


class Runner:
    """Warmup + calibration + repetition + GC pinning for every case.

    The discipline, per case: build it (factory, answer check and a
    first call, untimed), call the thunk until it has run ``warmup``
    times, calibrate an inner-loop ``number`` so one measurement spans at
    least ``min_time`` (timeit's doubling strategy — keeps the clock-read
    overhead amortised for nanosecond-scale thunks), then take
    ``repeats`` measurements of ``number`` iterations each with the GC
    frozen (collected once up front, disabled while timing).  A
    ``setup=True`` case instead takes ``repeats`` rounds of one untimed
    ``setup()`` and one timed call.
    """

    def __init__(
        self,
        repeats: int = 5,
        warmup: int = 2,
        min_time: float = 0.02,
        quick: bool = False,
        max_number: int = 10_000_000,
    ):
        if quick:
            repeats = min(repeats, 3)
            min_time = min(min_time, 0.005)
        self.repeats = repeats
        self.warmup = warmup
        self.min_time = min_time
        self.quick = quick
        self.max_number = max_number

    def calibrate(self, fn: Callable[[], Any]) -> int:
        number = 1
        while number < self.max_number:
            start = time.perf_counter()
            for _ in range(number):
                fn()
            if time.perf_counter() - start >= self.min_time:
                break
            number *= 2
        return number

    def run_case(self, case: BenchCase) -> CaseResult:
        setup, fn = case.build()  # its call is the first warmup call
        for _ in range(self.warmup - 1):
            fn() if setup is None else fn(setup())
        number = (case.number or self.calibrate(fn)) if setup is None else 1
        times: List[float] = []
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            perf_counter = time.perf_counter
            for _ in range(self.repeats):
                if setup is None:
                    start = perf_counter()
                    for _ in range(number):
                        fn()
                else:
                    state = setup()
                    start = perf_counter()
                    fn(state)
                times.append((perf_counter() - start) / number)
        finally:
            if gc_was_enabled:
                gc.enable()
        return CaseResult(
            name=case.name,
            group=case.group,
            number=number,
            repeats=self.repeats,
            warmup=self.warmup,
            min=min(times),
            median=statistics.median(times),
            mean=statistics.fmean(times),
            stdev=statistics.stdev(times) if len(times) > 1 else 0.0,
            times=times,
        )

    def run(
        self,
        suites: Iterable[BenchSuite],
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[CaseResult]:
        results: List[CaseResult] = []
        for suite in suites:
            for case in suite.cases:
                result = self.run_case(case)
                results.append(result)
                if progress is not None:
                    progress(
                        f"{result.group}::{result.name}  "
                        f"min={_format_time(result.min)}  "
                        f"median={_format_time(result.median)}  "
                        f"(n={result.number} x{result.repeats})"
                    )
        return results


def alternating_best(
    fns: Sequence[Callable[[], Any]], rounds: int = 5
) -> List[float]:
    """The best wall time of one call of each of ``fns``.

    Each round times one call of every function in turn, so a swing in
    host speed during the measurement hits every side alike; acceptance
    tests compare the returned minimums as ratios.
    """
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _format_time(seconds: float) -> str:
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


# ---------------------------------------------------------------------------
# fingerprint and snapshots
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def fingerprint() -> Dict[str, Any]:
    """Machine + interpreter + commit identity of one benchmark run.

    On a dirty tree ``diff_sha256`` digests ``git diff HEAD``: the numbers
    then belong to no commit, and two dirty runs of one commit measured
    the same code only if their digests agree.  Comparisons across
    fingerprints are still allowed (the CLI only warns): the trajectory
    spans machines, and the threshold + confirmation discipline is what
    filters environment noise.
    """
    import platform

    commit = _git("rev-parse", "HEAD")
    dirty = diff_sha256 = None
    if commit is not None:
        status = _git("status", "--porcelain")
        dirty = bool(status) if status is not None else None
        diff = _git("diff", "HEAD") if dirty else None
        if diff is not None:
            diff_sha256 = hashlib.sha256(diff.encode()).hexdigest()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "dirty": dirty,
        "diff_sha256": diff_sha256,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def make_snapshot(
    results: Iterable[CaseResult],
    seq: int,
    mode: str = "full",
    runner: Optional[Runner] = None,
) -> Dict[str, Any]:
    """The ``repro.bench/1`` document for one run."""
    config: Dict[str, Any] = {"mode": mode}
    if runner is not None:
        config.update(
            repeats=runner.repeats, warmup=runner.warmup, min_time=runner.min_time
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "seq": seq,
        "fingerprint": fingerprint(),
        "config": config,
        "results": [result.as_dict() for result in sorted(
            results, key=lambda r: (r.group, r.name)
        )],
    }


def validate_snapshot(snap: Any) -> List[str]:
    """Schema errors of a would-be ``repro.bench/1`` document ([] = valid)."""
    errors: List[str] = []
    if not isinstance(snap, dict):
        return [f"snapshot must be an object, got {type(snap).__name__}"]
    if snap.get("schema") != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema must be {BENCH_SCHEMA_VERSION!r}, got {snap.get('schema')!r}"
        )
    if not isinstance(snap.get("seq"), int) or isinstance(snap.get("seq"), bool):
        errors.append("seq must be an integer")
    if not isinstance(snap.get("fingerprint"), dict):
        errors.append("fingerprint must be an object")
    results = snap.get("results")
    if not isinstance(results, list):
        errors.append("results must be a list")
        return errors
    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            errors.append(f"results[{index}] must be an object")
            continue
        for key in ("name", "group"):
            if not isinstance(entry.get(key), str):
                errors.append(f"results[{index}].{key} must be a string")
        for key in ("min", "median", "mean", "stdev"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"results[{index}].{key} must be a number")
            elif not math.isfinite(value) or value < 0:
                errors.append(f"results[{index}].{key} must be finite and >= 0")
    return errors


def snapshot_paths(root: str) -> List[Path]:
    """All ``BENCH_*.json`` under ``root``, in sequence order."""
    found = []
    for path in Path(root).iterdir():
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_snapshot_path(root: str) -> Tuple[int, Path]:
    """The next free (seq, path) in the trajectory under ``root``."""
    existing = snapshot_paths(root)
    if existing:
        last = int(_SNAPSHOT_RE.match(existing[-1].name).group(1))
    else:
        last = 0
    seq = last + 1
    return seq, Path(root) / f"BENCH_{seq:04d}.json"


def latest_snapshot(root: str) -> Optional[Path]:
    paths = snapshot_paths(root)
    return paths[-1] if paths else None


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load and validate one snapshot; raises ``ValueError`` on bad schema."""
    with open(path) as f:
        snap = json.load(f)
    errors = validate_snapshot(snap)
    if errors:
        raise ValueError(
            f"{path}: not a valid {BENCH_SCHEMA_VERSION} snapshot: "
            + "; ".join(errors)
        )
    return snap


def write_snapshot(path: str, snap: Dict[str, Any]) -> None:
    errors = validate_snapshot(snap)
    if errors:
        raise ValueError(f"refusing to write invalid snapshot: {'; '.join(errors)}")
    with open(path, "w") as f:
        json.dump(snap, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# comparison / regression gating
# ---------------------------------------------------------------------------


@dataclass
class Delta:
    """One case's before/after (on the ``min`` statistic)."""

    name: str
    group: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        return self.after / self.before if self.before else math.inf

    @property
    def key(self) -> str:
        return f"{self.group}::{self.name}"


@dataclass
class Comparison:
    """The outcome of comparing a run against a prior snapshot.

    A case is a *regression* when its min grew by more than ``threshold``
    (relative) **and** by more than ``noise_floor`` seconds (absolute) —
    the floor keeps nanosecond-scale cases from tripping the gate on
    clock granularity.  ``ok`` is False only when regressions remain.
    """

    threshold: float
    noise_floor: float
    regressions: List[Delta] = field(default_factory=list)
    improvements: List[Delta] = field(default_factory=list)
    unchanged: List[Delta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"compared {len(self.regressions) + len(self.improvements) + len(self.unchanged)} "
            f"case(s), threshold {self.threshold:.0%}"
        ]
        for delta in self.regressions:
            lines.append(
                f"  REGRESSION {delta.key}: {_format_time(delta.before)} -> "
                f"{_format_time(delta.after)} ({delta.ratio:.2f}x)"
            )
        for delta in self.improvements:
            lines.append(
                f"  improved   {delta.key}: {_format_time(delta.before)} -> "
                f"{_format_time(delta.after)} ({delta.ratio:.2f}x)"
            )
        if self.added:
            lines.append(f"  new case(s): {', '.join(sorted(self.added))}")
        if self.removed:
            lines.append(f"  missing case(s): {', '.join(sorted(self.removed))}")
        lines.append("regression gate: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _result_index(snap: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        f"{entry['group']}::{entry['name']}": entry for entry in snap["results"]
    }


def compare_snapshots(
    prior: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = 0.25,
    noise_floor: float = 5e-8,
) -> Comparison:
    """Per-case comparison of two ``repro.bench/1`` snapshots."""
    before_index = _result_index(prior)
    after_index = _result_index(current)
    comparison = Comparison(threshold=threshold, noise_floor=noise_floor)
    for key, after in after_index.items():
        before = before_index.get(key)
        if before is None:
            comparison.added.append(key)
            continue
        delta = Delta(
            name=after["name"],
            group=after["group"],
            before=before["min"],
            after=after["min"],
        )
        grew = delta.after - delta.before
        if grew > noise_floor and delta.before and delta.ratio > 1 + threshold:
            comparison.regressions.append(delta)
        elif -grew > noise_floor and delta.ratio < 1 / (1 + threshold):
            comparison.improvements.append(delta)
        else:
            comparison.unchanged.append(delta)
    for key in before_index:
        if key not in after_index:
            comparison.removed.append(key)
    comparison.regressions.sort(key=lambda d: d.ratio, reverse=True)
    comparison.improvements.sort(key=lambda d: d.ratio)
    return comparison


def dirty_warning(label: str, snap: Dict[str, Any]) -> Optional[str]:
    """A warning when ``snap`` was measured on a dirty tree, else None."""
    fp = snap.get("fingerprint", {})
    if not fp.get("dirty"):
        return None
    digest = fp.get("diff_sha256")
    return (
        f"warning: {label} was measured on a dirty tree (commit "
        f"{fp.get('commit') or 'unknown'} plus uncommitted changes, "
        f"diff {digest[:12] if digest else 'not recorded'}); its numbers "
        "belong to no commit"
    )


def measure_in_fresh_process(
    suite: BenchSuite, name: str, runner: Runner
) -> CaseResult:
    """Measure one case in a new interpreter (``repro bench --no-emit --json``).

    ``--match`` selects by substring, so the child may also time cases
    whose names extend ``name`` (``x[1]`` matches ``x[10]``); only the
    exact case's result is returned.
    """
    if suite.directory is None:
        raise CaseError(f"{suite.group}::{name}: suite has no directory to re-import")
    command = [
        sys.executable, "-m", "repro", "bench", "--dir", suite.directory,
        "--only", suite.group, "--match", name,
        "--repeats", str(runner.repeats), "--no-emit", "--json",
    ]
    if runner.quick:
        command.append("--quick")
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (package_root, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(command, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise CaseError(
            f"{suite.group}::{name}: re-measure failed: {done.stderr.strip()}"
        )
    for entry in json.loads(done.stdout)["results"]:
        if entry["group"] == suite.group and entry["name"] == name:
            return CaseResult(**entry)
    raise CaseError(f"{suite.group}::{name}: missing from the re-measure")


def confirm_regressions(
    comparison: Comparison,
    suites: Iterable[BenchSuite],
    runner: Runner,
    results: List[CaseResult],
    rounds: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> List[CaseResult]:
    """Repeat-to-confirm: re-measure only the suspects, in fresh processes.

    Each suspect is re-measured in up to ``rounds`` new interpreters, the
    suspects taking turns round by round, and its result becomes the
    best-of-all-runs merge (see :meth:`CaseResult.merge_best`).  A fresh
    process gets a fresh heap and allocator state, so a slow mode that
    one process fell into does not survive confirmation.  A suspect is
    cleared as soon as its merged min is back inside the threshold.
    Returns the updated result list; the caller re-compares to get the
    confirmed verdict.
    """
    if comparison.ok:
        return results
    by_key = {f"{r.group}::{r.name}": r for r in results}
    suite_of = {
        f"{suite.group}::{case.name}": suite
        for suite in suites
        for case in suite.cases
    }
    pending = sorted(
        (delta for delta in comparison.regressions if delta.key in suite_of),
        key=lambda delta: delta.key,
    )
    for round_index in range(rounds):
        still = []
        for delta in pending:
            rerun = measure_in_fresh_process(suite_of[delta.key], delta.name, runner)
            merged = by_key[delta.key] = by_key[delta.key].merge_best(rerun)
            if progress is not None:
                progress(
                    f"confirm[{round_index + 1}/{rounds}] {delta.key}: "
                    f"min={_format_time(merged.min)} "
                    f"(was {_format_time(delta.before)})"
                )
            if merged.min > delta.before * (1 + comparison.threshold):
                still.append(delta)
        pending = still
    return [by_key[f"{r.group}::{r.name}"] for r in results]
