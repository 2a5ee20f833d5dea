"""Tests for the perf observatory (PR: bench harness, profiler, slow log).

Covers `repro.obs.bench` (runner statistics, per-round setup, checked
factories, suite registration and discovery, the BENCH_*.json snapshot
trajectory and its dirty-tree fingerprint, the noise-aware compare gate
with fresh-process confirmation), the sampling profiler, the
slow-operation log's diagnosis capture, the `repro bench` /
`repro profile` / `repro slowlog` CLI surfaces, and `benchmarks/report.py`.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.engine.events import EventBus
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchSuite,
    CaseResult,
    Runner,
    compare_snapshots,
    confirm_regressions,
    dirty_warning,
    discover_suites,
    fingerprint,
    latest_snapshot,
    load_snapshot,
    make_snapshot,
    measure_in_fresh_process,
    next_snapshot_path,
    snapshot_paths,
    validate_snapshot,
    write_snapshot,
)
from repro.obs.profiler import PROFILE_SCHEMA_VERSION, SamplingProfiler
from repro.obs.provenance import AuditLog
from repro.obs.slowlog import (
    DEFAULT_BUDGETS,
    SLOWLOG_SCHEMA_VERSION,
    SlowLog,
)
from repro.workloads import gate_database, make_implementation, make_interface


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_dir_ids = itertools.count()

ADAPTED_MODULE = """\
def work():
    total = 0
    for i in range(150):
        total += i * i
    return total


def register(suite):
    @suite.case("squares")
    def squares_case():
        return work
"""

UNADAPTED_MODULE = """\
def helper():
    return 1
"""

WRONG_ANSWER_MODULE = """\
calls = []


def register(suite):
    @suite.case("wrong_answer")
    def make():
        def thunk():
            calls.append(1)
            return 41

        assert thunk() == 42, "the answer is wrong"
        return thunk
"""

#: A case that is slow only in the process whose pid is filled in.
SLOW_IN_ONE_PROCESS_MODULE = """\
import os
import time

SLOW = os.getpid() == {pid}


def work():
    if SLOW:
        time.sleep(0.002)
    return sum(range(50))


def register(suite):
    suite.case("moody", lambda: work)
"""


def make_bench_dir(tmp_path, modules):
    """A throwaway benchmark directory with a unique package name (the
    harness imports modules as ``<dirname>.<stem>``, so reusing a name
    across tests would hit ``sys.modules``)."""
    bdir = tmp_path / f"benchdir{next(_dir_ids)}"
    bdir.mkdir()
    for name, source in modules.items():
        (bdir / name).write_text(source)
    return bdir


def result_of(name="case", group="g", minimum=1e-3, **overrides):
    fields = dict(
        name=name,
        group=group,
        number=100,
        repeats=3,
        warmup=1,
        min=minimum,
        median=minimum * 1.1,
        mean=minimum * 1.2,
        stdev=minimum * 0.01,
        times=[minimum, minimum * 1.1, minimum * 1.3],
    )
    fields.update(overrides)
    return CaseResult(**fields)


# ---------------------------------------------------------------------------
# suite registration and the runner
# ---------------------------------------------------------------------------

class TestSuiteAndRunner:
    def test_case_decorator_and_direct_registration(self):
        suite = BenchSuite("g", quick=True)

        @suite.case("decorated")
        def make_decorated():
            return lambda: None

        suite.case("direct", lambda: (lambda: None), number=7)
        assert [c.name for c in suite.cases] == ["decorated", "direct"]
        assert suite.cases[1].number == 7
        assert len(suite) == 2
        assert suite.quick

    def test_quick_mode_caps_repeats_and_min_time(self):
        runner = Runner(repeats=9, quick=True)
        assert runner.repeats == 3
        assert runner.min_time == 0.005
        assert Runner(repeats=9).repeats == 9

    def test_calibration_amortises_fast_thunks(self):
        runner = Runner(quick=True)
        # A ~50ns thunk needs thousands of inner iterations to span
        # min_time; calibration must grow number well past 1.
        assert runner.calibrate(lambda: None) > 64

    def test_run_case_statistics(self):
        suite = BenchSuite("g", quick=True)
        calls = {"setup": 0, "runs": 0}

        @suite.case("counted", number=10)
        def make_counted():
            calls["setup"] += 1

            def thunk():
                calls["runs"] += 1

            return thunk

        runner = Runner(quick=True)
        [result] = runner.run([suite])
        assert calls["setup"] == 1  # setup outside the measurement
        # warmup + repeats * number iterations, nothing else
        assert calls["runs"] == runner.warmup + runner.repeats * 10
        assert result.name == "counted" and result.group == "g"
        assert result.number == 10 and result.repeats == runner.repeats
        assert len(result.times) == runner.repeats
        assert 0 <= result.min <= result.median
        assert result.min <= result.mean
        assert result.stdev >= 0

    def test_run_reports_progress(self):
        suite = BenchSuite("g", quick=True)
        suite.case("a", lambda: (lambda: None), number=1)
        lines = []
        Runner(quick=True).run([suite], progress=lines.append)
        assert len(lines) == 1 and "g::a" in lines[0] and "min=" in lines[0]

    def test_merge_best_keeps_lowest_stats(self):
        first = result_of(minimum=2e-3)
        second = result_of(minimum=1e-3)
        merged = first.merge_best(second)
        assert merged.min == 1e-3
        assert merged.repeats == first.repeats + second.repeats
        assert merged.times == first.times + second.times

    def test_setup_runs_once_per_round_outside_the_timing(self, monkeypatch):
        clock = SteppingClock()
        monkeypatch.setattr("repro.obs.bench.time", clock)
        suite = BenchSuite("g", quick=True)
        events = []

        def setup():
            clock.now += 100.0  # a timed setup would add this to its round
            events.append("setup")
            return len(events)

        def consume(state):
            events.append(("consumed", state))

        suite.case("consuming", lambda: (setup, consume), setup=True)
        runner = Runner(quick=True)
        [result] = runner.run([suite])
        # The build's checking call and the rest of the warmup are rounds
        # too; every call consumes the state its own setup just made.
        rounds = runner.warmup + runner.repeats
        assert events.count("setup") == rounds
        assert events[1::2] == [("consumed", i) for i in range(1, 2 * rounds, 2)]
        assert result.number == 1 and result.repeats == runner.repeats
        assert result.times == pytest.approx([clock.step] * runner.repeats)

    def test_failing_factory_check_stops_the_run_untimed(
        self, tmp_path, capsys
    ):
        bdir = make_bench_dir(tmp_path, {"bench_wrong.py": WRONG_ANSWER_MODULE})
        root = tmp_path / "trajectory"
        root.mkdir()
        code = main([
            "bench", "--quick", "--dir", str(bdir), "--root", str(root),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "bench_wrong::wrong_answer" in err and "the answer is wrong" in err
        module = sys.modules[f"{bdir.name}.bench_wrong"]
        assert module.calls == [1]  # the factory's check, nothing timed
        assert snapshot_paths(str(root)) == []


class TestDiscovery:
    def test_discovers_adapted_and_reports_unadapted(self, tmp_path):
        bdir = make_bench_dir(tmp_path, {
            "bench_alpha.py": ADAPTED_MODULE,
            "bench_beta.py": UNADAPTED_MODULE,
            "helper.py": "raise AssertionError('must not be imported')\n",
        })
        suites, unadapted = discover_suites(str(bdir), quick=True)
        assert [s.group for s in suites] == ["bench_alpha"]
        assert [c.name for c in suites[0].cases] == ["squares"]
        assert suites[0].quick
        assert unadapted == ["bench_beta"]

    def test_only_filters_before_import(self, tmp_path):
        bdir = make_bench_dir(tmp_path, {
            "bench_alpha.py": ADAPTED_MODULE,
            "bench_broken.py": "raise RuntimeError('import-time bomb')\n",
        })
        suites, unadapted = discover_suites(str(bdir), only=["alpha"])
        assert [s.group for s in suites] == ["bench_alpha"]
        assert unadapted == []

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_suites(str(tmp_path / "nowhere"))


# ---------------------------------------------------------------------------
# the BENCH_*.json trajectory
# ---------------------------------------------------------------------------

class TestSnapshots:
    def test_round_trip(self, tmp_path):
        runner = Runner(quick=True)
        snap = make_snapshot([result_of()], seq=1, mode="quick", runner=runner)
        assert validate_snapshot(snap) == []
        assert snap["schema"] == BENCH_SCHEMA_VERSION
        assert snap["config"]["mode"] == "quick"
        assert snap["config"]["repeats"] == runner.repeats
        assert "python" in snap["fingerprint"]

        seq, path = next_snapshot_path(str(tmp_path))
        assert (seq, path.name) == (1, "BENCH_0001.json")
        write_snapshot(str(path), snap)
        loaded = load_snapshot(str(path))
        assert loaded == json.loads(json.dumps(snap))  # JSON-stable

    def test_sequence_advances_and_latest_wins(self, tmp_path):
        for expected_seq in (1, 2, 3):
            seq, path = next_snapshot_path(str(tmp_path))
            assert seq == expected_seq
            write_snapshot(str(path), make_snapshot([result_of()], seq=seq))
        paths = snapshot_paths(str(tmp_path))
        assert [p.name for p in paths] == [
            "BENCH_0001.json", "BENCH_0002.json", "BENCH_0003.json",
        ]
        assert latest_snapshot(str(tmp_path)).name == "BENCH_0003.json"

    def test_latest_none_when_empty(self, tmp_path):
        assert latest_snapshot(str(tmp_path)) is None

    def test_results_sorted_deterministically(self):
        snap = make_snapshot(
            [result_of("b", group="z"), result_of("a", group="a")], seq=1
        )
        keys = [(r["group"], r["name"]) for r in snap["results"]]
        assert keys == sorted(keys)

    def test_validate_rejects_malformed(self):
        assert validate_snapshot([]) != []
        assert validate_snapshot({"schema": "other/9"})
        good = make_snapshot([result_of()], seq=1)
        for mutate in (
            lambda s: s.update(seq="one"),
            lambda s: s.update(fingerprint=None),
            lambda s: s.update(results={"not": "a list"}),
            lambda s: s["results"][0].update(min=-1.0),
            lambda s: s["results"][0].update(mean=float("nan")),
            lambda s: s["results"][0].update(name=42),
            lambda s: s["results"].append("not an object"),
        ):
            snap = json.loads(json.dumps(good))
            mutate(snap)
            assert validate_snapshot(snap) != [], mutate

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(str(tmp_path / "BENCH_0001.json"), {"schema": "no"})
        assert snapshot_paths(str(tmp_path)) == []

    def test_fingerprint_digests_the_diff_of_a_dirty_tree(
        self, tmp_path, monkeypatch
    ):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                 *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        tracked = tmp_path / "tracked.txt"
        tracked.write_text("one\n")
        git("init", "-q")
        git("add", "tracked.txt")
        git("commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)
        clean = fingerprint()
        assert clean["dirty"] is False and clean["diff_sha256"] is None
        tracked.write_text("two\n")
        dirty = fingerprint()
        assert dirty["dirty"] is True and len(dirty["diff_sha256"]) == 64
        tracked.write_text("three\n")
        assert fingerprint()["diff_sha256"] != dirty["diff_sha256"]

    def test_dirty_warning_names_the_dirty_side(self):
        snap = make_snapshot([result_of()], seq=1)
        snap["fingerprint"].update(dirty=False, diff_sha256=None)
        assert dirty_warning("baseline BENCH_0001.json", snap) is None
        snap["fingerprint"].update(dirty=True, commit="c0ffee", diff_sha256="ab" * 32)
        warning = dirty_warning("baseline BENCH_0001.json", snap)
        assert "baseline BENCH_0001.json" in warning
        assert "dirty tree" in warning and "c0ffee" in warning
        assert "abababababab" in warning

    def test_load_rejects_doctored_schema(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        snap = make_snapshot([result_of()], seq=1)
        snap["schema"] = "repro.bench/999"
        path.write_text(json.dumps(snap))
        with pytest.raises(ValueError, match="not a valid"):
            load_snapshot(str(path))


# ---------------------------------------------------------------------------
# compare + regression gate
# ---------------------------------------------------------------------------

class TestCompare:
    def test_clean_pair_is_quiet(self):
        prior = make_snapshot([result_of(minimum=1e-3)], seq=1)
        current = make_snapshot([result_of(minimum=1.05e-3)], seq=2)
        comparison = compare_snapshots(prior, current)
        assert comparison.ok
        assert not comparison.regressions and not comparison.improvements
        assert "PASS" in comparison.render()

    def test_injected_2x_regression_fires(self):
        prior = make_snapshot([result_of(minimum=1e-3)], seq=1)
        current = make_snapshot([result_of(minimum=2e-3)], seq=2)
        comparison = compare_snapshots(prior, current)
        assert not comparison.ok
        [delta] = comparison.regressions
        assert delta.ratio == pytest.approx(2.0)
        rendered = comparison.render()
        assert "REGRESSION g::case" in rendered and "FAIL" in rendered

    def test_noise_floor_suppresses_nanosecond_jitter(self):
        # 3x relative growth, but only 20ns absolute: below the floor.
        prior = make_snapshot([result_of(minimum=1e-8)], seq=1)
        current = make_snapshot([result_of(minimum=3e-8)], seq=2)
        assert compare_snapshots(prior, current).ok
        # The same ratio above the floor is a real regression.
        prior = make_snapshot([result_of(minimum=1e-6)], seq=1)
        current = make_snapshot([result_of(minimum=3e-6)], seq=2)
        assert not compare_snapshots(prior, current).ok

    def test_threshold_boundary(self):
        prior = make_snapshot([result_of(minimum=1e-3)], seq=1)
        just_under = make_snapshot([result_of(minimum=1.2e-3)], seq=2)
        assert compare_snapshots(prior, just_under, threshold=0.25).ok
        assert not compare_snapshots(prior, just_under, threshold=0.10).ok

    def test_improvements_added_removed(self):
        prior = make_snapshot(
            [result_of("kept", minimum=2e-3), result_of("gone")], seq=1
        )
        current = make_snapshot(
            [result_of("kept", minimum=0.5e-3), result_of("new")], seq=2
        )
        comparison = compare_snapshots(prior, current)
        assert comparison.ok  # additions/removals/improvements never gate
        [delta] = comparison.improvements
        assert delta.name == "kept" and delta.ratio == pytest.approx(0.25)
        assert comparison.added == ["g::new"]
        assert comparison.removed == ["g::gone"]
        rendered = comparison.render()
        assert "improved" in rendered and "new case(s)" in rendered


class TestConfirmRegressions:
    def test_transient_regression_clears_on_rerun(self, tmp_path):
        bdir = make_bench_dir(tmp_path, {"bench_alpha.py": ADAPTED_MODULE})
        suites, _ = discover_suites(str(bdir), quick=True)
        runner = Runner(quick=True)
        honest = runner.run(suites)
        prior = make_snapshot(honest, seq=1)

        # A scheduler hiccup: the measured run looks 20x slower.  The
        # wide threshold keeps run-to-run timer drift (easily 2x on a
        # loaded box) from masking what we test: that the re-measure
        # clears an injected order-of-magnitude outlier.
        contaminated = [
            dataclasses.replace(
                honest[0],
                min=honest[0].min * 20,
                median=honest[0].median * 20,
                mean=honest[0].mean * 20,
            )
        ]
        comparison = compare_snapshots(
            prior, make_snapshot(contaminated, seq=2), threshold=4.0
        )
        assert not comparison.ok

        confirmed = confirm_regressions(
            comparison, suites, runner, contaminated, rounds=3
        )
        recheck = compare_snapshots(
            prior, make_snapshot(confirmed, seq=2), threshold=4.0
        )
        assert recheck.ok  # the re-measure found the honest minimum

    def test_fresh_processes_clear_a_slow_mode_of_this_process(self, tmp_path):
        bdir = make_bench_dir(tmp_path, {
            "bench_moody.py": SLOW_IN_ONE_PROCESS_MODULE.format(pid=os.getpid()),
        })
        suites, _ = discover_suites(str(bdir), quick=True)
        runner = Runner(quick=True)
        honest = measure_in_fresh_process(suites[0], "moody", runner)
        prior = make_snapshot([honest], seq=1)
        slow = runner.run(suites)  # this process sleeps 2 ms per call
        comparison = compare_snapshots(prior, make_snapshot(slow, seq=2))
        assert not comparison.ok
        # Re-measuring here would only find the same slow mode again.
        assert runner.run(suites)[0].min > 1e-3

        progress = []
        confirmed = confirm_regressions(
            comparison, suites, runner, slow, rounds=3, progress=progress.append
        )
        assert compare_snapshots(prior, make_snapshot(confirmed, seq=2)).ok
        assert 1 <= len(progress) <= 3  # one line per fresh-process re-measure

    def test_ok_comparison_is_untouched(self):
        results = [result_of()]
        comparison = compare_snapshots(
            make_snapshot(results, seq=1), make_snapshot(results, seq=2)
        )
        assert confirm_regressions(
            comparison, [], Runner(quick=True), results
        ) is results


# ---------------------------------------------------------------------------
# the repro bench CLI (golden round-trip)
# ---------------------------------------------------------------------------

class SteppingClock:
    """Stands in for the ``time`` module: ``perf_counter`` advances
    ``step`` seconds per call (at least the quick calibration target, so
    calibration stops at one iteration); everything else is ``time``'s."""

    def __init__(self, step: float = 0.01):
        self.now = 0.0
        self.step = step

    def perf_counter(self) -> float:
        self.now += self.step
        return self.now

    def __getattr__(self, name):
        return getattr(time, name)


class TestBenchCLI:
    @pytest.fixture
    def bench_dir(self, tmp_path):
        return make_bench_dir(tmp_path, {"bench_alpha.py": ADAPTED_MODULE})

    def bench(self, *extra, bench_dir, root):
        return main([
            "bench", "--quick", "--dir", str(bench_dir), "--root", str(root),
            *extra,
        ])

    def test_quick_run_emits_valid_snapshot(self, bench_dir, tmp_path, capsys):
        root = tmp_path / "trajectory"
        root.mkdir()
        assert self.bench(bench_dir=bench_dir, root=root) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "BENCH_0001.json" in out
        snap = load_snapshot(str(root / "BENCH_0001.json"))
        assert snap["seq"] == 1 and snap["config"]["mode"] == "quick"
        assert [r["name"] for r in snap["results"]] == ["squares"]

    def test_compare_gate_quiet_then_fires_then_warn_only(
        self, bench_dir, tmp_path, capsys, monkeypatch
    ):
        # A clock that advances one fixed step per reading: every timed
        # loop reads the same duration, so the clean pair is identical
        # whatever the host's speed does between the two runs.
        monkeypatch.setattr("repro.obs.bench.time", SteppingClock())
        root = tmp_path / "trajectory"
        root.mkdir()
        assert self.bench(bench_dir=bench_dir, root=root) == 0

        # Clean pair: same workload twice must pass the gate.
        assert self.bench("--compare", bench_dir=bench_dir, root=root) == 0
        out = capsys.readouterr().out
        assert "prior:" in out and "regression gate: PASS" in out
        assert (root / "BENCH_0002.json").exists()

        # Doctor the latest snapshot to be 4x faster than reality: the
        # next honest run is a >25% regression against it.
        latest = root / "BENCH_0002.json"
        snap = json.loads(latest.read_text())
        for entry in snap["results"]:
            for key in ("min", "median", "mean"):
                entry[key] /= 4
        latest.write_text(json.dumps(snap))

        code = self.bench(
            "--compare", "--confirm", "0", bench_dir=bench_dir, root=root
        )
        assert code == 2
        assert "REGRESSION" in capsys.readouterr().out

        # Explicit prior path (the doctored snapshot) + advisory mode.
        code = self.bench(
            "--compare", str(latest), "--confirm", "0", "--warn-only",
            bench_dir=bench_dir, root=root,
        )
        assert code == 0  # advisory mode still reports, never gates
        assert "regression gate: FAIL" in capsys.readouterr().out

    def test_compare_with_no_prior_seeds_trajectory(
        self, bench_dir, tmp_path, capsys
    ):
        root = tmp_path / "fresh"
        root.mkdir()
        assert self.bench("--compare", bench_dir=bench_dir, root=root) == 0
        assert "seeds the trajectory" in capsys.readouterr().err
        assert (root / "BENCH_0001.json").exists()

    def test_compare_warns_on_a_dirty_baseline(self, bench_dir, tmp_path, capsys):
        root = tmp_path / "trajectory"
        root.mkdir()
        assert self.bench(bench_dir=bench_dir, root=root) == 0
        baseline = root / "BENCH_0001.json"
        snap = json.loads(baseline.read_text())
        snap["fingerprint"].update(dirty=True, commit="c0ffee", diff_sha256="ab" * 32)
        baseline.write_text(json.dumps(snap))
        self.bench(
            "--compare", str(baseline), "--no-emit", "--warn-only",
            bench_dir=bench_dir, root=root,
        )
        err = capsys.readouterr().err
        assert f"warning: baseline {baseline} was measured on a dirty tree" in err

    def test_list_and_no_emit(self, bench_dir, tmp_path, capsys):
        root = tmp_path / "trajectory"
        root.mkdir()
        assert self.bench("--list", bench_dir=bench_dir, root=root) == 0
        assert "bench_alpha::squares" in capsys.readouterr().out
        assert self.bench("--no-emit", bench_dir=bench_dir, root=root) == 0
        assert snapshot_paths(str(root)) == []  # neither run wrote

    def test_match_without_hits_errors(self, bench_dir, tmp_path, capsys):
        assert self.bench(
            "--match", "nonexistent", bench_dir=bench_dir, root=tmp_path
        ) == 1
        assert "no benchmark suites matched" in capsys.readouterr().err

    def test_json_output(self, bench_dir, tmp_path, capsys):
        assert self.bench(
            "--no-emit", "--json", bench_dir=bench_dir, root=tmp_path
        ) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert validate_snapshot(doc) == []


# ---------------------------------------------------------------------------
# the sampling profiler
# ---------------------------------------------------------------------------

def spin(seconds):
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(100))
    return total


class TestProfiler:
    def test_samples_and_attributes_hot_frames(self):
        from repro.core import resolution
        from benchmarks.bench_e14_resolution import build_chain

        _top, bottom = build_chain(12, "ProfChain")
        profiler = SamplingProfiler(interval=0.0005)
        with profiler:
            deadline = time.perf_counter() + 0.25
            while time.perf_counter() < deadline:
                resolution.naive_get_member(bottom, "V")
        assert profiler.samples > 20
        assert profiler.wall_time > 0.2
        # The interpretive read loop's self time lands in core/resolution
        # (with is_permeable in core/inheritance as the other hot leaf).
        hot = [frame for frame, _, _ in profiler.self_times()[:3]]
        assert any("repro/core/" in frame for frame in hot), hot
        all_frames = {
            frame for stack in profiler.stacks for frame in stack
        }
        assert any("core/resolution.py" in f for f in all_frames)

    def test_collapsed_format_and_as_dict(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.06)
        lines = profiler.collapsed()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and ";" in stack or stack
        doc = profiler.as_dict()
        assert doc["schema"] == PROFILE_SCHEMA_VERSION
        assert doc["samples"] == profiler.samples > 0
        assert sum(s["count"] for s in doc["stacks"]) == doc["samples"]
        assert json.dumps(doc)  # JSON-serialisable

    def test_restartable_and_double_start_rejected(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()
        spin(0.03)
        profiler.stop()
        first = profiler.samples
        assert first > 0
        with profiler:  # restart accumulates into the same tables
            spin(0.03)
        assert profiler.samples >= first

    def test_render_top_shape(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.05)
        text = profiler.render_top(limit=3)
        assert "samples over" in text and "%" in text
        assert SamplingProfiler(interval=0.001).render_top() == "(no samples)"

    def test_profile_cli_wraps_inner_command(self, tmp_path, capsys):
        bdir = make_bench_dir(tmp_path, {"bench_alpha.py": ADAPTED_MODULE})
        collapsed_path = tmp_path / "stacks.collapsed"
        out_path = tmp_path / "profile.json"
        code = main([
            "profile", "--hz", "2000",
            "--collapsed", str(collapsed_path), "--out", str(out_path),
            "--", "bench", "--quick", "--dir", str(bdir),
            "--root", str(tmp_path), "--no-emit",
        ])
        assert code == 0  # the inner command's exit code passes through
        err = capsys.readouterr().err
        assert "samples over" in err or "(no samples)" in err
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == PROFILE_SCHEMA_VERSION
        assert collapsed_path.exists()

    def test_profile_cli_refuses_recursion_and_empty(self, capsys):
        assert main(["profile", "--", "profile", "check"]) == 1
        assert "refusing" in capsys.readouterr().err
        assert main(["profile", "--"]) == 1


# ---------------------------------------------------------------------------
# the slow-operation log
# ---------------------------------------------------------------------------

class TestSlowLog:
    def test_budget_and_exceeded(self):
        log = SlowLog()
        assert log.budget("query") == DEFAULT_BUDGETS["query"]
        assert log.exceeded("query", 1.0)
        assert not log.exceeded("query", 0.0)
        assert not log.exceeded("unknown-kind", 99.0)

    def test_none_budget_disables_a_kind(self):
        log = SlowLog(budgets={"query": None})
        assert not log.exceeded("query", 99.0)
        assert log.note("query", 99.0) is None
        assert log.recorded == 0
        # Other kinds keep their defaults.
        assert log.budget("txn") == DEFAULT_BUDGETS["txn"]

    def test_ring_bounded_but_recorded_total(self):
        # The audit ring is the only buffer: it bounds what is kept.
        audit = AuditLog(EventBus(), ring_size=4)
        log = SlowLog(budgets={"query": 0.0}, audit=audit)
        for index in range(10):
            op = log.note("query", 0.01, subject=f"q{index}", rows=index)
            assert op is not None and op.detail["rows"] == index
        assert log.recorded == 10
        assert audit.appended == 10
        assert [op.subject for op in log.operations("query")] == [
            "q6", "q7", "q8", "q9",
        ]

    def test_snapshot_and_render(self):
        log = SlowLog(budgets={"expansion": 0.0}, audit=AuditLog(EventBus()))
        log.note("expansion", 0.2, subject="Gate#1", objects=31, depth=None)
        snap = log.snapshot()
        assert snap["schema"] == SLOWLOG_SCHEMA_VERSION
        assert snap["recorded"] == 1
        [entry] = snap["operations"]
        assert entry["kind"] == "expansion"
        assert entry["detail"]["objects"] == 31
        assert entry["seq"] is not None
        assert json.dumps(snap)
        rendered = log.render()
        assert "[expansion]" in rendered and "objects: 31" in rendered
        assert f"#{entry['seq']} [expansion]" in rendered
        assert "empty" in SlowLog().render()

    def test_without_audit_counts_and_keeps_nothing(self):
        db = gate_database("slowlog-dark-audit")
        iface = make_interface(db)
        make_implementation(db, iface)
        db.enable_observability(
            tracing=False, audit=False, slow_budgets={"propagation": 0.0}
        )
        iface.set_attribute("Length", 23)
        iface.set_attribute("Length", 24)
        slowlog = db.obs.slowlog
        assert slowlog.audit is None
        assert slowlog.recorded == 2
        assert db.obs.metrics.value("slowlog.propagation") == 2
        assert slowlog.note("propagation", 1.0, subject=iface) is None
        assert slowlog.recorded == 3
        assert slowlog.operations() == []
        assert slowlog.snapshot()["operations"] == []
        assert slowlog.snapshot()["recorded"] == 3
        assert "3 over-budget operation(s)" in slowlog.render()

    def test_operations_are_the_audit_rings_slowlog_records(self):
        db = gate_database("slowlog-one-stream")
        iface = make_interface(db)
        impls = [make_implementation(db, iface) for _ in range(2)]
        db.enable_observability(tracing=False, slow_budgets={"propagation": 0.0})
        appended = db.obs.audit.appended
        iface.set_attribute("Length", 31)
        records = db.obs.audit.records("slowlog.propagation")
        ops = db.obs.slowlog.operations()
        assert len(records) == len(ops) == 1
        for op, record in zip(ops, records):
            assert op.seq == record.seq
            assert op.subject is record.subject is iface
            detail = dict(record.detail)
            assert op.duration == detail.pop("duration")
            assert op.budget == detail.pop("budget") == 0.0
            assert op.detail == detail
            assert op.detail["fanout"] == len(impls)
        # The update, its fan-out record and the slow record: one entry
        # each, with nothing stored twice.
        assert db.obs.audit.appended - appended == 3

    def test_slow_query_captures_explain_plan(self):
        db = gate_database("slowlog-query")
        iface = make_interface(db)
        make_implementation(db, iface)
        db.enable_observability(tracing=False, slow_budgets={"query": 0.0})
        db.query("select Length from GateInterface where Width > 0")
        slowlog = db.obs.slowlog
        assert slowlog.recorded >= 1
        op = slowlog.operations("query")[-1]
        assert op.subject == "select Length from GateInterface where Width > 0"
        assert "access" in op.detail["explain"]  # the EXPLAIN rendering
        assert op.detail["rows"] >= 0 and op.detail["candidates"] >= 1
        # render() re-indents the multi-line plan under an "explain:" key.
        rendered = slowlog.render()
        assert "explain: " in rendered
        assert str(op.detail["explain"]).splitlines()[0] in rendered

    def test_slow_ops_mirror_to_audit_stream(self):
        db = gate_database("slowlog-audit")
        iface = make_interface(db)
        make_implementation(db, iface)
        db.enable_observability(tracing=False, slow_budgets={"query": 0.0})
        db.query("select * from GateInterface")
        mirrored = db.obs.audit.records("slowlog.query")
        assert len(mirrored) == 1
        assert mirrored[0].detail["budget"] == 0.0

    def test_slow_propagation_is_caused_by_its_update(self):
        db = gate_database("slowlog-propagation")
        iface = make_interface(db)
        impls = [make_implementation(db, iface) for _ in range(3)]
        db.enable_observability(tracing=False, slow_budgets={"propagation": 0.0})
        iface.set_attribute("Length", 23)
        [op] = db.obs.slowlog.operations("propagation")
        assert op.subject is iface
        assert op.detail["attribute"] == "Length"
        assert op.detail["fanout"] == len(impls)
        assert op.detail["depth"] == 1
        [update] = [
            r for r in db.obs.audit.records(kind="attribute_updated")
            if r.detail["new"] == 23
        ]
        [record] = db.obs.audit.records("slowlog.propagation")
        assert record.cause == update.seq
        assert record.trace == update.trace

    def test_within_budget_records_nothing(self):
        db = gate_database("slowlog-quiet")
        iface = make_interface(db)
        make_implementation(db, iface)
        db.enable_observability(tracing=False)  # default generous budgets
        db.query("select * from GateInterface")
        iface.set_attribute("Length", 11)
        assert db.obs.slowlog.recorded == 0

    def test_slowlog_cli(self, tmp_path, capsys):
        from repro.ddl.paper import GATE_SCHEMA
        from repro.engine import save

        schema = tmp_path / "gates.ddl"
        schema.write_text(GATE_SCHEMA)
        db = gate_database("slowlog-cli")
        iface = make_interface(db)
        make_implementation(db, iface)
        image = tmp_path / "image.json"
        save(db, str(image))

        code = main([
            "slowlog", str(schema), str(image), "--budget-ms", "0",
            "--query", "select * from GateInterface", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SLOWLOG_SCHEMA_VERSION
        assert doc["recorded"] >= 1
        assert any(op["kind"] == "query" for op in doc["operations"])


# ---------------------------------------------------------------------------
# benchmarks/report.py
# ---------------------------------------------------------------------------

class TestReport:
    def test_format_time_units(self):
        from benchmarks import report

        assert report.format_time(5e-9) == "5 ns"
        assert report.format_time(3.2e-6) == "3.2 µs"
        assert report.format_time(4.5e-3) == "4.50 ms"
        assert report.format_time(2.0) == "2.000 s"

    def test_e18_registered(self):
        from benchmarks import report

        assert "bench_e18_observatory" in report.EXPERIMENTS
        assert "| E18 |" in report.HEADER

    def test_main_renders_grouped_tables(self, tmp_path, capsys):
        from benchmarks import report

        snap = make_snapshot([
            result_of("plan_read[16]", "bench_e14_resolution", 2.6e-7),
            result_of("plan_read[8]", "bench_e14_resolution", 2.5e-7),
            result_of("reads_unprofiled[5000]", "bench_e18_observatory", 1.1e-3),
        ], seq=6)
        snap["fingerprint"].update(
            python="3.12.0", machine="x86_64", commit="0123456789abcdef",
            dirty=False,
        )
        path = tmp_path / "BENCH_0006.json"
        path.write_text(json.dumps(snap))
        report.main(str(path))
        out = capsys.readouterr().out
        assert "E14" in out and "| `plan_read[8]` | 250 ns | 275 ns | 100 × 3 |" in out
        assert out.index("`plan_read[8]`") < out.index("`plan_read[16]`")
        assert "profiler and slow-log overhead" in out
        assert "`reads_unprofiled[5000]`" in out
        assert "Run environment: Python 3.12.0" in out
        assert "commit 0123456789ab;" in out and "`BENCH_0006.json`" in out
        # No stray sections for experiments absent from the run.
        assert "E17" not in out.replace("| E17 |", "")

    def test_main_refuses_what_is_not_a_snapshot(self, tmp_path):
        from benchmarks import report

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"machine_info": {}, "benchmarks": []}))
        with pytest.raises(SystemExit, match="not a repro.bench/1 snapshot"):
            report.main(str(path))
