#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 sessionbench/spread.py --workloads edit assemble --runs 10 \\
        --first-seed 1 --out sessionbench/out/set-a.json

Each run is one untraced ``run.py`` process at ``BENCHMARK.json``'s
``run_seconds``, one after another.  For every
end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}\n"
                           f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    names = sorted({name for result in results for name in result["metrics"]})
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / mid if mid else 0.0,
                         "values": values}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={time.perf_counter() - started:.1f}s", flush=True)
        report["workloads"][workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": summarise(results),
        }
        for name, figures in report["workloads"][workload]["metrics"].items():
            print(f"  {name:38s} median={figures['median']:.6g} "
                  f"spread={figures['spread']:.3f}", flush=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
