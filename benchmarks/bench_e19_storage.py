"""E19 — slotted storage engine: compiled slot programs vs the tree walk.

A parts library at 10k/50k objects with two value constraints, three
workloads, each run in both engine modes:

* unindexed **equality scan** (``Weight = 5``, ~1% selectivity);
* unindexed **range scan** (``Weight > 90``, ~6% selectivity);
* the **constraint sweep** over every live object
  (:func:`repro.engine.integrity.sweep_constraints`).

``compiled=True`` is the slotted engine: predicates and constraints
compile once per (expression, type, schema epoch) into generated batch
scans over the type's column store.  ``compiled=False`` forces the
tree-walking interpreter — the dict-era evaluation path, kept callable as
the oracle.  Value indexes are off throughout: this experiment measures
raw scan machinery, not access-path selection (that is E15).

The acceptance shape: at 50k objects the compiled equality scan, range
scan and constraint sweep each beat the tree walk by ≥10×.
"""

from repro.core.domains import ANY
from repro.engine import Database
from repro.engine.integrity import sweep_constraints
from repro.obs.bench import alternating_best
from repro.query.executor import run_query

SIZES = [10_000, 50_000]

EQ_QUERY = "select * from Parts where Weight = 5"
RANGE_QUERY = "select * from Parts where Weight > 90"

_cache = {}


def parts_db(n):
    """A cached n-part library, no value indexes, two value constraints."""
    if n not in _cache:
        db = Database(f"e19-{n}")
        db.indexes.auto = False
        db.catalog.define_object_type(
            "Part",
            attributes={"Serial": ANY, "Weight": ANY, "Category": ANY},
            constraints=["Weight >= 0", "Serial >= 0"],
        )
        db.create_class("Parts", "Part")
        categories = max(1, n // 100)
        for i in range(n):
            db.create_object(
                "Part",
                class_name="Parts",
                Serial=i,
                Weight=i % 97,
                Category=f"cat_{i % categories}",
            )
        # Warm the compiled programs and the parse cache so the benchmark
        # measures steady-state scans, not the one-off compilation.
        run_query(db, EQ_QUERY, compiled=True)
        run_query(db, RANGE_QUERY, compiled=True)
        sweep_constraints(db, compiled=True)
        _cache[n] = db
    return _cache[n]


def expected_rows(n, predicate):
    return sum(1 for i in range(n) if predicate(i % 97))


class TestAcceptance:
    def test_compiled_beats_tree_walk_10x_at_50k(self):
        """The acceptance gate, measured in-process (best of 5, compiled
        and tree-walk rounds alternating)."""
        db = parts_db(50_000)
        for label, fast, slow in [
            ("eq", lambda: run_query(db, EQ_QUERY, compiled=True),
             lambda: run_query(db, EQ_QUERY, compiled=False)),
            ("range", lambda: run_query(db, RANGE_QUERY, compiled=True),
             lambda: run_query(db, RANGE_QUERY, compiled=False)),
            ("sweep", lambda: sweep_constraints(db, compiled=True),
             lambda: sweep_constraints(db, compiled=False)),
        ]:
            fast_s, slow_s = alternating_best([fast, slow])
            speedup = slow_s / fast_s
            # 7× in-test floor: the documented ≥10× holds on quiet runs
            # (see EXPERIMENTS.md); CI boxes get headroom against noise.
            assert speedup >= 7.0, f"{label}: only {speedup:.1f}x"


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [2_000] if suite.quick else SIZES:
        for kind, query, predicate in (
            ("eq", EQ_QUERY, lambda weight: weight == 5),
            ("range", RANGE_QUERY, lambda weight: weight > 90),
        ):
            for compiled, mode in ((True, "compiled"), (False, "tree_walk")):

                @suite.case(f"{kind}_{mode}[{n}]")
                def scan_case(n=n, query=query, predicate=predicate, compiled=compiled):
                    db = parts_db(n)
                    result = run_query(db, query, compiled=compiled)
                    assert len(result) == expected_rows(n, predicate)
                    assert result.plan.access_path == "full-scan"
                    return lambda: run_query(db, query, compiled=compiled)

        for compiled, mode in ((True, "compiled"), (False, "tree_walk")):

            @suite.case(f"sweep_{mode}[{n}]")
            def sweep_case(n=n, compiled=compiled):
                db = parts_db(n)
                assert sweep_constraints(db, compiled=compiled) == []
                return lambda: sweep_constraints(db, compiled=compiled)
