"""The benchmark's own tests, at small scale.

Run from the repository root:  python3 -m pytest sessionbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402

ROUNDS = 2


def small_session(workload, seed, workdir, perturb=()):
    sess = session.make_session(workload, seed, str(workdir), scale="small", perturb=perturb)
    sess.setup()
    for index in range(ROUNDS):
        sess.run_round(index)
    return sess


def fingerprint(sess):
    return {
        "digest": sess.digest.hexdigest(),
        "attempted": sess.attempted,
        "kinds": dict(sess.kinds),
        "objects": sess.db.count(),
        "image_bytes": list(sess.image_bytes),
        "checks": dict(sess.checks.counts),
        "query_access": dict(sess.query_access),
        "records_kept": sess.records_kept(),
    }


@pytest.mark.parametrize("workload", sorted(session.WORKLOADS))
def test_workload_runs_clean(workload, tmp_path):
    sess = small_session(workload, 1, tmp_path)
    assert sess.attempted == ROUNDS * (sum(sess.mix.values()) + 1)
    assert sess.failed == 0, sess.errors
    assert sess.checks.ok, sess.checks.failures
    sess.close()


def test_every_check_family_is_exercised(tmp_path):
    seen = set()
    for workload in ("edit", "assemble"):
        sess = small_session(workload, 1, tmp_path)
        seen.update(family for family, n in sess.checks.counts.items() if n)
        sess.close()
    assert seen == set(session.Checks.FAMILIES)


@pytest.mark.parametrize("family", session.Checks.FAMILIES)
def test_perturbed_expectation_fires(family, tmp_path):
    workload = "assemble" if family == "steel_rules" else "edit"
    sess = small_session(workload, 1, tmp_path, perturb={family})
    assert sess.failed == 0, sess.errors
    assert not sess.checks.ok
    assert all(failure.startswith(family + ":") for failure in sess.checks.failures)
    sess.close()


@pytest.mark.parametrize("workload", ["edit", "assemble"])
def test_same_seed_same_stream_and_counts(workload, tmp_path):
    first = small_session(workload, 7, tmp_path)
    second = small_session(workload, 7, tmp_path)
    assert fingerprint(first) == fingerprint(second)


@pytest.mark.parametrize("workload", ["edit", "assemble"])
def test_other_seed_other_stream(workload, tmp_path):
    first = small_session(workload, 7, tmp_path)
    other = small_session(workload, 8, tmp_path)
    assert first.digest.hexdigest() != other.digest.hexdigest()


def test_observed_stream_matches_edit(tmp_path):
    plain = small_session("edit", 3, tmp_path)
    observed = small_session("edit_observed", 3, tmp_path)
    assert plain.digest.hexdigest() == observed.digest.hexdigest()
    assert observed.db.obs is not None and plain.db.obs is None


@pytest.mark.parametrize("workload", sorted(session.WORKLOADS))
def test_traced_run_yields_every_layer_metric(workload, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    sess, metrics, counts = run.run_traced(
        session, layers, workload, 2, ROUNDS, str(tmp_path), scale="small"
    )
    assert set(metrics) == declared
    assert sess.checks.ok and sess.failed == 0
    again = run.run_traced(
        session, layers, workload, 2, ROUNDS, str(tmp_path), scale="small"
    )[2]
    assert counts == again
    assert counts["objects_created"] > 0 and counts["image_bytes"] > 0


def test_untraced_metrics_cover_end_to_end(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["end_to_end"]}
    sess, metrics = run.run_untraced(session, "edit", 1, ROUNDS, str(tmp_path), scale="small")
    assert set(metrics) - run.REPORT_ONLY == declared
    assert all(value is None or value > 0 for value, _n in metrics.values())


def test_steel_rules_read_the_program(tmp_path):
    sess = small_session("assemble", 1, tmp_path)
    structure = sess.structures[0]
    screwing = structure["screwings"][0]
    # Store a wrong length on the standard bolt behind the first screwing;
    # the record still holds the right one.
    standard = sess.bolts[(screwing["diameter"], screwing["bolt_length"])]
    standard.set_attribute("Length", standard.get_member("Length") + 1)
    sess.check_steel_rules(structure)
    assert [f.split(":")[0] for f in sess.checks.failures] == ["steel_rules"]
    sess.close()


@pytest.mark.parametrize("installed", [False, True])
def test_exits_nonzero_without_the_program(installed, tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "sessionbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if installed:
        # The program importable from elsewhere, as after an installation.
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "sessionbench/run.py", "--workload", "edit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
