"""E15 — indexed query engine: value indexes vs. full scans.

A parts library at 10k/50k objects, three access patterns:

* selective equality (``Category`` holds ~1% of the extent per value);
* range + top-k (``Serial >= high-water order by Serial desc limit 10``);
* the same queries forced through the full scan (``indexes.auto = False``)
  as the baseline the planner must beat;
* the maintenance tax: one attribute update with value indexes attached;
* the query path's fixed costs: an equality whose text the parse and
  program caches have never seen (``eq_fresh_text``: each call parses,
  binds its constant into the shape's program and probes the index), and
  a two-sided range probed as one interval (``range_interval_indexed``).

The acceptance shape: at 50k the indexed equality beats the scan by ≥10×
and the indexed range+top-k by ≥5×; updates stay O(indexes touched).
"""

import itertools

from repro.core.domains import ANY
from repro.engine import Database

SIZES = [10_000, 50_000]

_cache = {}


def parts_db(n):
    """A cached n-part library with warmed value indexes."""
    if n not in _cache:
        db = Database(f"e15-{n}")
        db.catalog.define_object_type(
            "Part",
            attributes={"Serial": ANY, "Weight": ANY, "Category": ANY},
        )
        db.create_class("Parts", "Part")
        categories = n // 100  # ~1% of the extent per category value
        for i in range(n):
            db.create_object(
                "Part",
                class_name="Parts",
                Serial=i,
                Weight=i % 97,
                Category=f"cat_{i % categories}",
            )
        # Warm the Category and Serial indexes so the benchmark measures
        # steady-state lookups, not the one-off build.
        db.query("select * from Parts where Category = 'cat_0'")
        db.query("select * from Parts where Serial >= 0 and Serial < 1")
        db.query("select * from Parts where Weight = -1")
        _cache[n] = db
    return _cache[n]


def run_with(db, text, auto):
    manager = db.indexes
    previous = manager.auto
    manager.auto = auto
    try:
        return db.query(text)
    finally:
        manager.auto = previous


EQ_QUERY = "select * from Parts where Category = 'cat_3'"

#: Width of the two-sided range: 50 parts, whatever the extent.
SPAN = 50


def interval_query(n):
    return (
        f"select Serial from Parts where Serial >= {n // 2} "
        f"and Serial < {n // 2 + SPAN}"
    )


def top_query(n):
    return (
        f"select Serial from Parts where Serial >= {n - n // 100} "
        "order by Serial desc limit 10"
    )


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [2_000] if suite.quick else SIZES:
        for name, text, auto, access in (
            ("eq_indexed", EQ_QUERY, True, "index-eq"),
            ("eq_full_scan", EQ_QUERY, False, "full-scan"),
            ("range_topk_indexed", top_query(n), True, "index-range"),
            ("range_topk_full_scan", top_query(n), False, "full-scan"),
        ):

            @suite.case(f"{name}[{n}]")
            def query_case(n=n, text=text, auto=auto, access=access):
                db = parts_db(n)
                result = run_with(db, text, auto)
                assert result.plan.access_path == access
                if text == EQ_QUERY:
                    assert len(result) == 100
                else:
                    assert result.scalars() == list(range(n - 1, n - 11, -1))
                    if auto:
                        assert result.plan.order == "top-10 heap desc"
                return lambda: run_with(db, text, auto)

        @suite.case(f"eq_fresh_text[{n}]")
        def fresh_case(n=n):
            """Each call's constant is new to the parse cache (256 texts):
            the serials cycle through all n parts."""
            db = parts_db(n)
            serials = itertools.cycle(range(n))

            def run():
                serial = next(serials)
                result = db.query(f"select * from Parts where Serial = {serial}")
                return serial, result

            parts = db.class_("Parts").members()
            for _ in range(3):
                serial, result = run()
                assert result.plan.access_path == "index-eq"
                assert result.objects == [
                    part for part in parts if part.get_member("Serial") == serial
                ]
            return run

        @suite.case(f"range_interval_indexed[{n}]")
        def interval_case(n=n):
            db = parts_db(n)
            text = interval_query(n)
            result = db.query(text)
            assert result.plan.access_path == "index-range"
            # Both bounds are probed: the candidates are the span itself.
            assert result.plan.candidates == SPAN
            assert result.scalars() == [
                i for i in range(n) if n // 2 <= i < n // 2 + SPAN
            ]
            return lambda: db.query(text)

        @suite.case(f"update_with_indexes[{n}]")
        def update_case(n=n):
            """The write-path tax: each update refreshes the attribute's index."""
            obj = parts_db(n).class_("Parts").members()[0]
            counter = iter(range(10**9))
            return lambda: obj.set_attribute("Weight", next(counter))
