"""E20 — materialized per-type views: flattened inherited reads vs live
resolution.

A gate library at 10k/50k implementations, each bound to one of n/50
shared interfaces (fan-out 50), filtering on the *inherited* ``Length``
— the workload PR 7's batch scans could never take, because an inherited
read leaves the object's own column store and walks the binding chain.
Two unindexed workloads, each in three engine modes:

* **equality scan** (``Length = 5``, ~1% selectivity) and **range scan**
  (``Length > 90``, ~6% selectivity);
* ``view`` — the materialized path: one flattened row per implementation,
  inherited values denormalized into contiguous columns, scanned by a
  generated program;
* ``live-compiled`` (``views=False``) — PR 7's engine: compiled programs
  whose inherited reads fall back to per-object resolution;
* ``tree-walk`` (``views=False, compiled=False``) — the interpretive
  oracle, the paper-faithful resolution walk.

The **maintenance tax** cases price the write side: transmitter updates
at fan-out 50 (one write refreshes 50 view rows) vs fan-out 1, against
the same writes with no view built.

The **polymorphic** case queries a type source holding two concrete
types — implementations and the uses that inherit from them — on
inherited members, the way a designer picks from an implementation
library.  Each type's candidates run through that type's view, and the
matches merge back in source order.

The acceptance shape: at 50k objects the view scans beat the tree-walk
oracle by ~16× in BENCH_0006 (≥7× asserted in-test for noise headroom)
and the live-compiled engine by ~4×.  Value indexes are off throughout: sub-linear access-path
selection is E15's experiment, and when an index fits, it wins — views
take the plans indexes *don't* cover (inherited members, range-heavy
residuals over unindexed attributes).
"""

from repro.core.domains import ANY
from repro.engine import Database
from repro.obs.bench import alternating_best
from repro.query.executor import run_query

SIZES = [10_000, 50_000]
FAN_OUT = 50

EQ_QUERY = "select * from Impls where Length = 5"
RANGE_QUERY = "select * from Impls where Length > 90"

_cache = {}


def gates_db(n, fan_out=FAN_OUT):
    """A cached :func:`build_gates_db` for the scans, which leave it as
    they found it."""
    key = (n, fan_out)
    if key not in _cache:
        _cache[key] = build_gates_db(n, fan_out)
    return _cache[key]


def build_gates_db(n, fan_out):
    """An n-implementation library: n/fan_out interfaces, every
    implementation inheriting Length/Width, no value indexes."""
    db = Database(f"e20-{n}-{fan_out}")
    db.indexes.auto = False
    iface = db.catalog.define_object_type(
        "Iface", attributes={"Length": ANY, "Width": ANY}
    )
    all_of = db.catalog.define_inheritance_type(
        "AllOf_Iface", iface, ["Length", "Width"]
    )
    impl = db.catalog.define_object_type("Impl", attributes={"Serial": ANY})
    impl.declare_inheritor_in(all_of)
    db.create_class("Impls", impl)
    interfaces = [
        db.create_object(iface, Length=i % 97, Width=i % 7)
        for i in range(max(1, n // fan_out))
    ]
    for i in range(n):
        db.create_object(
            "Impl",
            class_name="Impls",
            transmitter=interfaces[i // fan_out],
            Serial=i,
        )
    # Warm the parse cache, the compiled programs and the view build
    # so the benchmark measures steady-state scans.
    run_query(db, EQ_QUERY)
    run_query(db, RANGE_QUERY)
    run_query(db, EQ_QUERY, views=False)
    return db, interfaces


POLY_QUERY = "select * from Impl where Length + Width > 90"


def poly_db(n):
    """A cached type source of n/2 implementations and n/2 uses, created
    interleaved; each use inherits Length/Width through an implementation
    from one of 97 interfaces (~8% selectivity); no value indexes."""
    key = ("poly", n)
    if key not in _cache:
        db = Database(f"e20-poly-{n}")
        db.indexes.auto = False
        iface = db.catalog.define_object_type(
            "Iface", attributes={"Length": ANY, "Width": ANY}
        )
        all_of = db.catalog.define_inheritance_type(
            "AllOf_Iface", iface, ["Length", "Width"]
        )
        impl = db.catalog.define_object_type("Impl", attributes={"Serial": ANY})
        impl.declare_inheritor_in(all_of)
        some_of = db.catalog.define_inheritance_type(
            "SomeOf_Impl", impl, ["Length", "Width"]
        )
        use = db.catalog.define_object_type("Use", attributes={"Slot": ANY})
        use.declare_inheritor_in(some_of)
        interfaces = [
            db.create_object(iface, Length=i, Width=i % 11) for i in range(97)
        ]
        impls = []
        for i in range(n // 2):
            impls.append(db.create_object(
                impl, transmitter=interfaces[i % len(interfaces)], Serial=i
            ))
            db.create_object(use, transmitter=impls[i // 2], Slot=i)
        run_query(db, POLY_QUERY)  # warm the views and the programs
        _cache[key] = db
    return _cache[key]


def write_round(interfaces):
    for i, iface in enumerate(interfaces):
        iface.set_attribute("Length", (i + 1) % 97)


def expected(n, fan_out, predicate):
    return sum(
        1 for i in range(n) if predicate((i // fan_out) % 97)
    )


class TestAcceptance:
    def test_view_beats_tree_walk_10x_at_50k(self):
        """The acceptance gate, measured in-process (best of 5, the three
        engine modes alternating round by round)."""
        db, _ = gates_db(50_000)
        for label, query in (("eq", EQ_QUERY), ("range", RANGE_QUERY)):
            routed = run_query(db, query)
            assert routed.plan.access_path == "view"
            view, live, walk = alternating_best([
                lambda: run_query(db, query),
                lambda: run_query(db, query, views=False),
                lambda: run_query(db, query, views=False, compiled=False),
            ])
            # 7× in-test floor: BENCH_0006 measured ~16× on both scans
            # (see EXPERIMENTS.md); CI boxes get noise headroom.
            assert walk / view >= 7.0, f"{label}: only {walk / view:.1f}x"
            # The view must also beat PR 7's compiled live path, whose
            # inherited reads resolve per object.
            assert live / view > 1.0, f"{label}: live {live / view:.2f}x"


#: Engine modes: case-name stem, run_query keywords, expected access path.
MODES = (
    ("view", {}, "view"),
    ("live_compiled", {"views": False}, "full-scan"),
    ("tree_walk", {"views": False, "compiled": False}, "full-scan"),
)


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [2_000] if suite.quick else SIZES:
        for kind, query, predicate in (
            ("eq", EQ_QUERY, lambda v: v == 5),
            ("range", RANGE_QUERY, lambda v: v > 90),
        ):
            for mode, options, access in MODES:

                @suite.case(f"{kind}_{mode}[{n}]")
                def scan_case(n=n, query=query, predicate=predicate,
                              options=options, access=access):
                    db, _ = gates_db(n)
                    result = run_query(db, query, **options)
                    assert len(result) == expected(n, FAN_OUT, predicate)
                    assert result.plan.access_path == access
                    return lambda: run_query(db, query, **options)

    for n in [2_000] if suite.quick else [10_000]:

        @suite.case(f"view_polymorphic[{n}]")
        def poly_case(n=n):
            db = poly_db(n)
            result = run_query(db, POLY_QUERY)
            assert result.plan.access_path == "view"
            source = db.objects_of_type("Impl")
            assert len({obj.object_type for obj in source}) == 2
            expected = [
                obj for obj in source
                if obj.get_member("Length") + obj.get_member("Width") > 90
            ]
            assert expected and result.objects == expected
            return lambda: run_query(db, POLY_QUERY)

    # The write-side price: one transmitter update refreshes fan-out view
    # rows, measured as a round of writes over every interface.
    for fan_out in [FAN_OUT] if suite.quick else [FAN_OUT, 1]:

        @suite.case(f"write_round_with_view[10k/fan{fan_out}]")
        def with_view_case(fan_out=fan_out):
            db, interfaces = build_gates_db(10_000, fan_out)
            run_query(db, EQ_QUERY)  # view built: maintenance is live
            return lambda: write_round(interfaces)

        @suite.case(f"write_round_without_view[10k/fan{fan_out}]")
        def without_view_case(fan_out=fan_out):
            db, interfaces = build_gates_db(10_000, fan_out)
            db.views.drop_views()
            db.views.auto = False  # never rebuilt: the no-view write baseline
            return lambda: write_round(interfaces)
