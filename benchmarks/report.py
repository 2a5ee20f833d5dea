#!/usr/bin/env python3
"""Render EXPERIMENTS.md from a ``repro.bench/1`` snapshot.

Usage::

    python -m repro bench                                   # BENCH_<seq>.json
    python benchmarks/report.py BENCH_<seq>.json > EXPERIMENTS.md

The report groups a snapshot's results by experiment (benchmark module),
renders a min / median / number×repeats table per group, and carries the
experiment commentary that maps measurements back to the paper's claims.
It reads the JSON directly, so it runs without ``repro`` on the path.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
from typing import Dict, List

SCHEMA = "repro.bench/1"

#: Experiment metadata: module stem -> (title, paper anchor, expected shape).
EXPERIMENTS = {
    "bench_fig1_complex_objects": (
        "E1 — Figure 1: complex objects (Gate / Flip-Flop)",
        "Figure 1, §3",
        "Traversal and cascade deletion grow linearly with the number of "
        "subobjects (compare the 10/50/200-subgate rows).  Construction and "
        "deep constraint checking grow close to quadratically: each wire's "
        "`where` restriction evaluates `Wire.Pin1 in SubGates.Pins`, which "
        "collects the pins of every subgate and scans them with one equality "
        "test each, and a gate with n subgates has n wires, checked when each "
        "is created and again by the deep check (a profile of "
        "deep_constraint_check[200] put 95% of its time in that restriction).",
    ),
    "bench_fig2_interface_propagation": (
        "E2 — Figure 2: interface → implementation propagation",
        "Figure 2, §4.2",
        "With value inheritance, an interface update costs the same at "
        "1, 10 and 100 implementations (readers delegate); the copy "
        "baseline's update cost grows with the fan-out, and it still "
        "needs a staleness scan the inheritance regime gets for free. "
        "The price is one delegation hop on inherited reads "
        "(inherited vs. local read rows).",
    ),
    "bench_fig3_composition": (
        "E3 — Figure 3: building composites",
        "Figure 3, §4.2",
        "Incorporating a component is O(1) in the component's size "
        "(3/30/120-pin rows are flat): the data is linked, not moved. "
        "Reading all component data grows with the number of slots.",
    ),
    "bench_fig4_expansion": (
        "E4 — Figure 4: expansion of composite hierarchies",
        "Figure 4, §4.2/§6",
        "Expansion cost tracks the number of objects materialised — "
        "exponential in depth for a fixed fan-out tree; depth-limited "
        "expansion cuts it correspondingly.",
    ),
    "bench_fig5_steel_constraints": (
        "E5 — Figure 5 / §5: steel-construction constraints",
        "Figure 5, §5",
        "Deep constraint checking grows linearly with the number of "
        "screwings; one ScrewingType evaluation (two counts, a nested "
        "quantifier, an aggregate) is the unit cost.  The structure-level "
        "where restriction grows with the number of bores joined.",
    ),
    "bench_e6_copy_vs_view_vs_inherit": (
        "E6 — §2 ablation: copy vs. view vs. inheritance composition",
        "§2",
        "Copy incorporation grows with component size; view and "
        "inheritance stay flat.  After a component update the copy reads "
        "stale data (fast but wrong); view and inheritance read fresh "
        "values through one indirection.  Inheritance additionally "
        "exposes only the permeable subset — the paper's argument, "
        "reproduced.",
    ),
    "bench_e7_permeability": (
        "E7 — §4.2 ablation: permeability and hierarchy depth",
        "§4.2",
        "Read cost is independent of how *wide* the inheriting list is, "
        "and a steady-state read through a chain stays flat in hierarchy "
        "*depth*: the plan memo revalidates the memoised holder with two "
        "epoch compares and reads one column index (E14).  Root updates "
        "stay O(1) at every depth.  Negative result: a materialising "
        "inherited-value cache, the §2 copy alternative, lost on both "
        "sides and was deleted.  When it was deleted, a warm read through it "
        "took 674 ns against 177 ns through the memo at depth 8, and a root update "
        "plus re-read 4.7–5.1 µs against 1.0–1.2 µs for the update "
        "alone: validating an entry (three epoch compares, a "
        "(surrogate, member) tuple key and a dict probe) costs more than "
        "the memo's two compares and a column index it wrapped.",
    ),
    "bench_e8_version_selection": (
        "E8 — §6 ablation: version-selection policies",
        "§6",
        "Top-down query selection evaluates its predicate over every candidate "
        "and grows fastest with the version count (13× from 10 to 400 "
        "versions in BENCH_0006); bottom-up default and environment selection "
        "grow more slowly (6× and 5×), the growth being the "
        "candidate-eligibility scan.  "
        "Re-resolution adds an unbind+bind on top.",
    ),
    "bench_e9_lock_inheritance": (
        "E9 — §6 ablation: lock inheritance and expansion locking",
        "§6",
        "A locked read of a component slot costs one extra scoped lock "
        "per transmitter level over a plain read; expansion locking "
        "grows with the hierarchy size.  The correctness gain: composite "
        "readers and component writers conflict although they touch "
        "different objects (asserted in the suite).",
    ),
    "bench_e10_consistency_overhead": (
        "E10 — ablation: consistency machinery on the update path",
        "§4.1",
        "Adaptation tracking adds a bounded per-update cost that grows with the "
        "inheritor fan-out (the records are per affected link, ~0.6 µs each in "
        "BENCH_0006); a trigger adds under 1 µs at fan-out 1 and disappears in "
        "the tracker's noise at fan-out 50; event recording is cheapest.  The "
        "update path "
        "without any machinery is the baseline row, and the worklist scan is "
        "linear in the inheritors awaiting adaptation.",
    ),
    "bench_e11_persistence": (
        "E11 — ablation: persistence scale",
        "engine substrate",
        "Dump is linear in the number of objects (10/50/200-interface "
        "libraries); load is linear on top of a constant (~1.5 ms in "
        "BENCH_0006), the fresh "
        "target's schema load, which its timed region includes.  Loaded "
        "databases preserve the live value-inheritance read path (asserted).",
    ),
    "bench_e12_query": (
        "E12 — ablation: query-language execution",
        "§6 (top-down selection queries)",
        "Where-filtering and ordering are linear in the extent size; an "
        "aggregate predicate (count over a subclass) costs a per-object "
        "collection scan on top of the plain attribute predicate; parsing "
        "is a constant prefix.",
    ),
    "bench_e13_observability": (
        "E13 — ablation: observability overhead",
        "instrumentation layer (repro.obs)",
        "With observe=False the *_observe_off rows match their E2 "
        "counterparts within noise (one attribute load + branch per "
        "site).  With observe=True an update additionally walks its "
        "propagation fan-out — linear in the inheritor count — and an "
        "inherited read pays one counter increment per delegation hop.",
    ),
    "bench_e14_resolution": (
        "E14 — resolution engine: compiled plans vs. interpretive walk",
        "§4.1 (member resolution)",
        "Steady-state inherited reads are O(1) in chain depth: the "
        "memoised holder is revalidated by two integer compares (schema "
        "epoch + the inheritor's propagated binding epoch), so the "
        "plan_read rows are flat across depths 4/8/16 and beat the "
        "interpretive walk by well over the 3× acceptance target at "
        "depth ≥ 8.  The cold compiled walk (plan_walk_cold) is linear "
        "with a cheaper per-hop constant than the interpretive re-scan.  "
        "Negative result: an epoch-validated inherited-value cache on top "
        "of the memo was O(1) too but slower (when it was deleted, warm read "
        "663 ns against 233 ns for plan_read at depth 8; update then re-read "
        "4.8–5.2 µs), since validating three epochs plus a tuple key and "
        "a dict probe costs more than the memo's two compares and a "
        "column index; it was deleted.  Plan compilation is a one-off "
        "per type and schema epoch; visible_member_names amortises to a "
        "tuple load.",
    ),
    "bench_e15_indexes": (
        "E15 — indexed query engine: value indexes vs. full scans",
        "§6 (selection queries over large extents)",
        "Selective equality is answered from the hash index in time "
        "proportional to the matching bucket — flat across 10k/50k and about "
        "70× under the full scan at 50k in BENCH_0006 (≥10× is the acceptance "
        "floor).  Range "
        "+ top-k bisects the sorted index and heap-selects the tail: it grows "
        "with the span (1% of the extent here), not the whole extent, and beats "
        "the scan by 6–7×, above the 5× floor.  A two-sided range is one "
        "interval probed with two bisects (range_interval_indexed: its "
        "candidates are the 50-part span itself, ~55 µs at 10k and 50k alike in "
        "BENCH_0007).  eq_fresh_text runs a text neither the parse cache nor "
        "the program cache has seen on every call; it stays flat at ~45 µs, "
        "mostly the uncached parse, because the predicate's shape is compiled "
        "once and each text only binds its constant.  The write-path tax "
        "(update_with_indexes) is a few microseconds per touched index — "
        "maintenance along the update's cone, no rebuilds.",
    ),
    "bench_e16_provenance": (
        "E16 — causal provenance: audit overhead on the Figure-2 workload",
        "observability layer (repro.obs.provenance)",
        "With observe off the update_dark rows match E13's dark rows within "
        "noise — the audit guards are one attribute load and a branch.  With "
        "observe on, attaching the audit log adds about 1.1 µs per mutation "
        "over the baseline (update_audit_off) in BENCH_0006 and almost nothing "
        "per reached inheritor (1.6 µs at fan-out 100): the batched "
        "propagation.fanout "
        "record reuses the cone the maintainer already walked.  That is 13% at "
        "the Figure-2 fan-out of 10 and 6% at 100.  explain_value is a pure "
        "interpretive walk (no observability needed); cone reconstruction is "
        "linear in the ring.",
    ),
    "bench_e17_lint": (
        "E17 — static analysis: lint cost vs. the failures it prevents",
        "static analyzer (repro.analysis)",
        "Linting a paper-sized schema — parse, model lowering, every "
        "REP1xx–REP4xx rule — costs about 2 ms in BENCH_0006, far below one failed "
        "load_schema round-trip plus debugging.  Re-linting an already-compiled "
        "catalog skips the parse and is about 3.5× cheaper, so post-migration "
        "re-checks are cheap.  Rule cost grows near-linearly with declaration "
        "count (the graph rules are Tarjan SCCs and per-edge scans, nothing "
        "quadratic).  The differential verifier — build, synthesize, bind, "
        "probe every member against the interpretive oracles — costs about 1.4 "
        "plain lints (the lint itself pays a build in its REP100 net), cheap "
        "enough to gate CI on the *proof*, not just the claim.",
    ),
    "bench_e18_observatory": (
        "E18 — the observatory's own tax: profiler and slow-log overhead",
        "perf observatory (repro.obs.bench/profiler/slowlog)",
        "The zero-cost-when-disabled contract holds for the slow log: with "
        "observability off its guards are one attribute load and a branch "
        "(update_slowlog_dark matches E13's dark row), attached-but-quiet adds "
        "two perf_counter reads per measured propagation (about 0.2 µs over "
        "update_slowlog_detached in BENCH_0006), and a zero-budget firing log "
        "pays its cone "
        "diagnosis plus a counter per update on top.  reads_profiled_1khz "
        "starts and stops the sampler inside every timed call, and a 5 000-read "
        "batch (~0.7 ms) ends before the first 1 ms sampling interval, so no "
        "sample lands in it: its ~120 µs gap to reads_unprofiled is the sampler "
        "thread's start and stop.  reads_sampled_1khz prices sampling itself: "
        "100 000 reads (~14 ms) under one start and stop, so samples land in "
        "every call (its check asserts that they do and that no sampler thread "
        "outlives the call).  Per read it costs about 2% more than "
        "reads_unprofiled in BENCH_0007 (13.6 ms against 20 × 0.67 ms), the "
        "start and stop included.",
    ),
    "bench_e19_storage": (
        "E19 — slotted storage engine: compiled slot programs vs. tree walk",
        "engine substrate (repro.core.slots / repro.expr.compile)",
        "Attributes live in per-type column stores; predicates and constraints "
        "compile once per (shape, type, schema epoch) — the shape is the AST "
        "with its literals lifted out, bound per node — into generated batch "
        "scans that read slots positionally with raw comparisons, falling back "
        "to the tree walk on any type surprise.  At 50k objects the compiled "
        "unindexed equality and range scans and the fused two-phase constraint "
        "sweep each beat the tree-walking oracle by over the 10× acceptance "
        "floor (~15×/~15×/~19× in BENCH_0007); the oracle rows grow linearly with "
        "the extent while compiled rows keep a ~15× smaller constant.  "
        "Equivalence — identical rows, violations and error messages — is "
        "pinned by the hypothesis oracles in tests/test_storage.py.",
    ),
    "bench_e20_views": (
        "E20 — materialized inherited-relation views: flattened per-type extents",
        "§4.2 permeability as Litwin's stored-and-inherited relations",
        "Inherited attributes flatten into per-type view columns aligned with "
        "the storage rows, so the generated view scan reads them with the same "
        "positional index as stored slots — no per-object resolution, no "
        "hashing.  At 50k implementations the unindexed inherited equality and "
        "range scans beat the tree-walk oracle by ~16× each in BENCH_0007 (≥7× "
        "is the in-test "
        "floor) and the compiled live path (views=False) — whose inherited "
        "reads still resolve per object — by ~4×.  A polymorphic source is "
        "scanned type by type: view_polymorphic filters a type source of 5 000 "
        "implementations and the 5 000 uses inheriting from them on "
        "Length + Width, each type through its own view, and merges the ~1 100 "
        "matches back into source order (3.0 ms in BENCH_0007).  The write side is priced by "
        "the write rounds: a transmitter update refreshes its fan-out's view "
        "cells along its propagation cone at ~0.7 µs per cell, so the "
        "per-write tax scales with the fan-out (~2 µs at fan-out 1, ~34 µs at "
        "fan-out 50) — the "
        "classic materialized-view trade, profitable when reads outnumber "
        "transmitter writes.  Equivalence against run_query(views=False) — "
        "rows, order, errors — is pinned by the hypothesis oracle in "
        "tests/test_views.py.",
    ),
    "bench_e21_contention": (
        "E21 — flight-recorder tax and the contention observatory",
        "service-tier observability (repro.obs.recorder / repro.txn.locks)",
        "The flight recorder is pull-based — one tick walks the registry, "
        "summarises histogram percentiles and appends to the ring in ~10 µs "
        "(BENCH_0006), "
        "the price the sampling thread pays per interval, while the engine's "
        "update path costs the same with an empty and a capacity-full ring "
        "(update_recorder_idle vs. update_recorder_full_ring; an acceptance "
        "test pins them within a 3× min-of-7 noise bound, the two sides timed "
        "alternately) and update_dark is the observability-off floor, ~3.5× "
        "cheaper than carrying metrics at all.  contended_grant prices one full "
        "blocking-lock round — K reader threads park behind an exclusive "
        "holder, waits-for edges register, the holder releases, every waiter is "
        "granted and the wait histogram absorbs K observations — at "
        "thread-lifecycle cost (~2.7 ms for K=4), with the uncontended acquire "
        "held at parity with the non-blocking seed (locked_read_plain in E9).  "
        "An acceptance test walks the lock-wait-p95 health rule through ok → "
        "degraded → ok around the contention burst, pinning the windowed-delta "
        "semantics of repro.obs.health end to end.",
    ),
    "bench_e22_sanitizer": (
        "E22 — pricing the race sanitizer, zero-cost dark path",
        "concurrency correctness tooling (repro.obs.race / repro.analysis.lockorder)",
        "The sanitizer instruments every shared-mutation site (TypeStore "
        "writes, view/index maintenance, epoch bumps, the lock table) "
        "behind a module-level `TSAN` guard that is `None` when dark, so "
        "the sanitizer-off hot path is one global load and an `is None` "
        "test per site: update_dark times a batch of 200 updates and "
        "lock_roundtrip_dark a batch of 50 acquire/release pairs with the "
        "guard dark, and `repro bench --compare` holds them to the "
        "trajectory.  Enabled, the propagation loop pays a few percent "
        "(few shadow accesses per update at this workload's shape) while "
        "the lock table — the chattiest site, with a state write, an HB "
        "publish/join and a stack capture on every grant and release — "
        "pays ~16× per uncontended round-trip in BENCH_0006, the honest price of "
        "exactness; a contended round is dominated by thread lifecycle "
        "and parks, so sanitizing it costs only ~10%.  The acceptance "
        "tests pin the contract the numbers rest on: enable→disable "
        "restores `TSAN is None` in every site module and the "
        "post-disable cost stays within a 3× noise bound of "
        "never-enabled, and every sanitized workload here (updates, lock "
        "round-trips, the contended round) finishes with zero race "
        "reports.",
    ),
}


HEADER = """# EXPERIMENTS — paper vs. measured

The paper (Wilkes/Klahold/Schlageter, ICDE 1989) is a conceptual-model
paper: it published **no implementation and no measurements**, and its five
figures are model diagrams.  The reproduction turns each figure into an
executable scenario (pinned by integration tests under
`tests/integration/`) and quantifies the paper's qualitative design
arguments with the benchmarks below (E6–E9 are ablations of claims made in
§2, §4.2 and §6).  Each timed case is defined once, in the `register(suite)`
function of its `benchmarks/bench_*.py` module, and timed by `repro bench`.
The tables are rendered from one committed full-mode snapshot:

    python -m repro bench                                   # BENCH_<seq>.json
    python benchmarks/report.py BENCH_<seq>.json > EXPERIMENTS.md

Each row gives the case's min and median per call over `repeats`
measurements of `number` calls each (a `setup` case times one call per
measurement).  Absolute numbers will vary by machine; the **shapes**
described under each table are the reproduction targets.  The figures
quoted in the status column and the shape texts were read from
`BENCH_0006.json` unless a text says otherwise; the tables come from the
snapshot named under this table, and where the two differ the tables are
current.

| Exp | Paper artefact | Scenario | Status |
|-----|----------------|----------|--------|
| E1 | Figure 1 | Gate/Flip-Flop complex objects | reproduced (structure pinned by tests; traversal and deletion linear, wire checks quadratic) |
| E2 | Figure 2 | interface ↔ implementations | reproduced (O(1) propagation vs. O(N) copy fan-out) |
| E3 | Figure 3 | component relationship | reproduced (size-independent incorporation) |
| E4 | Figure 4 | both roles + expansion | reproduced (expansion tracks materialised objects) |
| E5 | Figure 5 / §5 | steel construction | reproduced (constraints evaluate, violations detected) |
| E6 | §2 argument | copy vs. view vs. inheritance | reproduced (trade-offs as argued) |
| E7 | §4.2 argument | permeability / hierarchy depth | reproduced (materialising cache: negative result) |
| E8 | §6 versions | three selection policies | reproduced (query grows fastest, default/environment slower) |
| E9 | §6 transactions | lock inheritance | reproduced (bounded overhead, conflicts caught) |
| E10 | §4.1 consistency | adaptation/trigger overhead | measured (bounded per-update cost) |
| E11 | engine substrate | persistence scale | measured (linear, inheritance live after reload) |
| E12 | §6 selection queries | query execution | measured (linear filters, O(1)-ish parse) |
| E13 | instrumentation layer | observability overhead | measured (near-zero off, bounded on) |
| E14 | §4.1 member resolution | compiled plans + epoch memo | measured (O(1) steady-state reads, ≥3× vs. interpretive) |
| E15 | §6 selection queries | attribute/type indexes + planner | measured (≥10× selective equality, ≥5× range+top-k at 50k; fresh texts and two-sided intervals priced) |
| E16 | observability layer | causal provenance / audit overhead | measured (~13% audit tax at Figure-2 fan-out, dark path unchanged) |
| E17 | static analyzer | lint cost vs. prevented failures | measured (ms-scale lint, near-linear scaling, verify ≈ 1.4 lints) |
| E18 | perf observatory | profiler + slow-log overhead | measured (slow log ≈0 when disabled; 1 kHz sampling ≈2% per read, start/stop ~120 µs) |
| E19 | engine substrate | slotted storage + compiled scans | measured (≥10× eq/range scans and constraint sweep at 50k vs. tree walk) |
| E20 | §4.2 permeability (Litwin SIRs) | materialized per-type views | measured (~16× inherited-eq scan at 50k vs. tree walk, polymorphic sources per type, maintenance priced) |
| E21 | service-tier observability | flight recorder + contention observatory | measured (tick ~10 µs, update parity empty vs. full ring, contended grants + health walk) |
| E22 | concurrency correctness | race-sanitizer overhead, zero-cost dark path | measured (dark hot path held by the trajectory, a few % sanitized updates, ~16× sanitized lock round-trips) |

The harness (`src/repro/obs/bench.py`) checks every case's answer before
timing it; every run emits a `BENCH_<seq>.json` snapshot (`repro.bench/1`)
at the repo root, and `repro bench --compare` gates on noise-confirmed
regressions against the previous snapshot — see `docs/perf.md` for the
trajectory workflow.
"""


def format_time(seconds: float) -> str:
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def _natural(name: str) -> list:
    """Sort key placing ``case[8]`` before ``case[16]``."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", name)]


def main(path: str) -> None:
    with open(path) as f:
        snap = json.load(f)
    if snap.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} snapshot")

    groups: Dict[str, List[dict]] = defaultdict(list)
    for result in snap["results"]:
        groups[result["group"]].append(result)

    print(HEADER)
    fp = snap.get("fingerprint", {})
    commit = (fp.get("commit") or "unknown")[:12]
    print(
        f"Run environment: Python {fp.get('python', '?')} on "
        f"{fp.get('machine', '?')} ({fp.get('platform', '?')}, "
        f"{fp.get('cpu_count', '?')} CPUs); commit {commit}"
        f"{' plus uncommitted changes' if fp.get('dirty') else ''}; "
        f"{snap.get('config', {}).get('mode', '?')} mode, "
        f"`{path.rsplit('/', 1)[-1]}`.\n"
    )

    for stem, (title, anchor, shape) in EXPERIMENTS.items():
        results = groups.get(stem)
        if not results:
            continue
        print(f"## {title}\n")
        print(f"*Paper anchor: {anchor}.*\n")
        print("| case | min | median | number × repeats |")
        print("|------|-----|--------|------------------|")
        for result in sorted(results, key=lambda r: _natural(r["name"])):
            print(
                f"| `{result['name']}` | {format_time(result['min'])} | "
                f"{format_time(result['median'])} | "
                f"{result['number']} × {result['repeats']} |"
            )
        print(f"\n**Measured shape.** {shape}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
