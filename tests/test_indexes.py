"""Tests for the indexed query engine: IndexManager, ValueIndex, planner.

The contract under test is *oracle equivalence*: whatever access path the
planner picks, query results must be byte-identical to the full scan
(``IndexManager.auto = False``), and ``Database.objects_of_type`` must
match the original full-registry scan kept as
``Database.naive_objects_of_type``.  The hypothesis property drives
randomized schemas and mutation scripts — attribute writes, binds,
unbinds, deletes, transaction aborts, version revert-and-reject,
``declare_inheritor_in`` rebinds, subobject and local-relationship
container changes, over a relationship that hides a written member —
with indexes built early so the incremental maintenance path (not a
fresh build) is what answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ANY
from repro.core.inheritance import InheritanceRelationshipType
from repro.core.objtype import ObjectType
from repro.engine.database import Database
from repro.errors import ReproError, VersionError
from repro.query import run_query
from repro.txn.transactions import TransactionManager
from repro.versions.states import StateGuard

from .derived_world import (
    STRUCTURAL_ACTIONS,
    assert_derived_state_fresh,
    make_schema,
    seed_chain,
    structural_step,
)

_counter = [0]


def _uname(prefix):
    _counter[0] += 1
    return f"{prefix}Ix{_counter[0]}"


def _outcome(db, text, **options):
    """Columns, rows, object order and access path of a query, or its
    exception."""
    try:
        result = run_query(db, text, **options)
    except Exception as exc:  # noqa: BLE001 - compared by the caller
        return ("error", type(exc), str(exc)), None
    objects = result.objects
    return ("ok", result.columns, result.rows,
            None if objects is None else [o.surrogate for o in objects]
            ), result.plan.access_path


def assert_queries_agree(db, text):
    """Indexed execution must match the live full-scan oracle and the tree
    walk exactly — rows, columns, objects, or the exception type and
    message."""
    manager = db.indexes
    manager.auto = False
    try:
        oracle, access = _outcome(db, text, views=False)
        walked, _ = _outcome(db, text, compiled=False)
    finally:
        manager.auto = True
    indexed, _ = _outcome(db, text)
    assert indexed == oracle, text
    assert indexed == walked, text
    assert access in ("full-scan", None)


def assert_type_index_agrees(db, type_):
    for include in (True, False):
        assert db.objects_of_type(type_, include) == db.naive_objects_of_type(
            type_, include
        )


# ---------------------------------------------------------------------------
# the randomized-schema oracle property
# ---------------------------------------------------------------------------

ALPHA_VALUES = (0, 1, 2, 3, 1.5, "x", "y")
BETA_VALUES = (0, 1, 2, 3, 4, 5)


def _make_world():
    """The shared Base/Sub/Leaf world (see ``derived_world``), one class."""
    world = make_schema(_uname)
    db = Database(_uname("db"))
    db.indexes.min_index_source = 0
    for type_ in (world.base, world.sub, world.leaf):
        db.catalog.register(type_)
    db.create_class("Things", world.base)
    return db, world


def _battery(db, world):
    queries = [
        "select * from Things where alpha = 2",
        "select * from Things where alpha = 'x'",
        "select alpha, beta from Things where beta > 2",
        "select * from Things where alpha = 1 and beta >= 1",
        "select * from Things where beta = 2",
        "select * from Things where Parts = 0",
        "select distinct alpha from Things",
        "select alpha from Things where beta <= 3 order by beta desc limit 2",
        f"select * from {world.base.name} where alpha = 3",
        f"select * from {world.sub.name} where alpha = 0",
        f"select * from {world.leaf.name} where beta = 1",
        # Two-sided ranges: one interval per attribute, strict and
        # non-strict bounds, a literal on either side, int/float keys,
        # empty and inverted intervals, and alpha's mixed kinds (strings
        # make the range unsafe, so the planner keeps the full scan).
        "select * from Things where beta > 1 and beta <= 4",
        "select * from Things where 1.5 < beta and beta < 3.5",
        "select * from Things where beta >= 2 and beta < 2",
        "select * from Things where beta > 4 and beta < 1",
        "select * from Things where alpha >= 1 and alpha <= 2",
        f"select * from {world.base.name} where beta >= 1 and beta <= 3",
        f"select * from {world.base.name} where alpha > 0 and alpha < 1.5",
        f"select alpha from {world.base.name} where 2 <= beta and beta <= 2",
    ]
    for text in queries:
        assert_queries_agree(db, text)
    for type_ in (world.base, world.sub, world.leaf):
        assert_type_index_agrees(db, type_)
    assert_derived_state_fresh(db)


action = st.one_of(
    st.tuples(st.just("create_base"), st.sampled_from(ALPHA_VALUES),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("create_sub"), st.sampled_from(ALPHA_VALUES)),
    st.tuples(st.just("set_alpha"), st.integers(0, 20),
              st.sampled_from(ALPHA_VALUES)),
    st.tuples(st.just("set_beta"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("bind"), st.integers(0, 20), st.integers(0, 20)),
    st.tuples(st.just("unbind"), st.integers(0, 20)),
    st.tuples(st.just("delete"), st.integers(0, 20)),
    st.tuples(st.just("txn_abort"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("revert"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("declare_rebind"), st.integers(0, 20), st.integers(0, 20)),
    *STRUCTURAL_ACTIONS,
)


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=12))
def test_planner_matches_full_scan_oracle(actions):
    db, world = _make_world()
    base, sub, rel = world.base, world.sub, world.rel
    txns = TransactionManager(db)
    guard = StateGuard(db)
    objs = []
    for value in (0, 1, "x"):
        objs.append(
            db.create_object(base, class_name="Things", alpha=value, beta=1)
        )
    objs += seed_chain(db, world, objs[0])
    # Prime the value indexes now so the script below exercises the
    # incremental maintenance path, not a fresh build at query time.
    _battery(db, world)

    def pick(i):
        return objs[i % len(objs)] if objs else None

    for step in actions:
        kind = step[0]
        if kind not in ("create_base", "create_sub") and pick(0) is None:
            continue  # every object deleted; mutation steps have no target
        try:
            if kind == "create_base":
                objs.append(
                    db.create_object(
                        base, class_name="Things", alpha=step[1], beta=step[2]
                    )
                )
            elif kind == "create_sub":
                obj = db.create_object(sub, class_name="Things")
                obj.set_attribute("alpha", step[1])
                objs.append(obj)
            elif kind == "set_alpha":
                pick(step[1]).set_attribute("alpha", step[2])
            elif kind == "set_beta":
                pick(step[1]).set_attribute("beta", step[2])
            elif kind == "bind":
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is base:
                    db.bind(inheritor, transmitter, rel)
                elif (inheritor.object_type is world.leaf
                      and transmitter.object_type is sub):
                    db.bind(inheritor, transmitter, world.leaf_rel)
            elif kind == "unbind":
                obj = pick(step[1])
                link = obj.link_for(rel) or obj.link_for(world.leaf_rel)
                if link is not None:
                    link.unbind()
            elif kind == "delete":
                obj = pick(step[1])
                obj.delete(unbind_inheritors=True)
                objs = [o for o in objs if not o.deleted]
            elif kind == "txn_abort":
                obj = pick(step[1])
                txn = txns.begin()
                txn.set(obj, "beta", step[2])
                txn.abort()
            elif kind == "revert":
                obj = pick(step[1])
                if guard.state_of(obj) is None:
                    guard.release(obj)
                with pytest.raises(VersionError):
                    obj.set_attribute("beta", step[2])
            elif kind == "declare_rebind":
                # A schema change mid-life: a fresh inheritance declaration
                # bumps the schema epoch, dropping every value index.
                new_rel = InheritanceRelationshipType(
                    _uname("LateRel"), transmitter_type=base, inheriting=["beta"]
                )
                sub.declare_inheritor_in(new_rel)
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is base:
                    db.bind(inheritor, transmitter, new_rel)
            else:
                structural_step(db, world, objs, pick, step)
        except ReproError:
            # Illegal scripts (double bind, write-through-link, inherited
            # shadowing, …) are fine: the engine rejected them on both
            # sides of the comparison identically.
            pass
        # Cheap agreement probes per step catch staleness at the moment it
        # appears, not only at the end.
        assert_queries_agree(db, "select * from Things where alpha = 1")
        assert_queries_agree(
            db, f"select * from {base.name} where beta > 0 and beta <= 3"
        )
        assert_derived_state_fresh(db)

    _battery(db, world)


# ---------------------------------------------------------------------------
# deterministic behaviour
# ---------------------------------------------------------------------------


@pytest.fixture
def parts_db():
    db = Database(_uname("parts"))
    part = db.catalog.define_object_type(
        "Part", attributes={"Serial": ANY, "Category": ANY}
    )
    db.create_class("Parts", part)
    db.indexes.min_index_source = 0
    for i in range(60):
        db.create_object(
            "Part", class_name="Parts", Serial=i, Category=f"cat_{i % 6}"
        )
    return db


def test_equality_uses_index_and_matches(parts_db):
    result = run_query(parts_db, "select * from Parts where Category = 'cat_2'")
    assert result.plan.access_path == "index-eq"
    assert result.plan.index_attr == "Category"
    assert len(result.rows) == 10
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_2'")


def test_range_uses_sorted_index(parts_db):
    result = run_query(parts_db, "select Serial from Parts where Serial >= 55")
    assert result.plan.access_path == "index-range"
    assert result.scalars() == [55, 56, 57, 58, 59]


def test_two_sided_range_probes_one_interval(parts_db):
    text = "select Serial from Parts where Serial > 10 and 14 >= Serial"
    result = run_query(parts_db, text, explain=True)
    assert result.plan.access_path == "index-range"
    assert result.plan.candidates == 4  # both bounds probed, no residual
    assert result.scalars() == [11, 12, 13, 14]
    assert "index-range on 'Serial' [Serial > 10 and 14 >= Serial]" in (
        result.explain()
    )
    assert_queries_agree(parts_db, text)
    for empty in (
        "select * from Parts where Serial > 14 and Serial < 10",
        "select * from Parts where Serial >= 12 and Serial < 12",
    ):
        result = run_query(parts_db, empty)
        assert result.plan.access_path == "index-range"
        assert result.plan.candidates == 0 and not result.rows
        assert_queries_agree(parts_db, empty)


def test_interval_with_an_incomparable_bound_keeps_the_full_scan(parts_db):
    result = run_query(
        parts_db, "select * from Parts where Serial > 100 and Serial < 'x'"
    )
    assert result.plan.access_path == "full-scan"
    assert any("range scan unsafe" in note for note in result.plan.notes)
    # The incomparable conjunct first: the full scan raises on the first
    # part, so the other bound must not narrow the candidates to none.
    assert_queries_agree(
        parts_db, "select * from Parts where Serial < 'x' and Serial > 100"
    )


def test_explain_reports_estimated_and_actual_rows(parts_db):
    result = run_query(
        parts_db, "select * from Parts where Category = 'cat_0'", explain=True
    )
    text = result.explain()
    assert "index-eq" in text
    assert "estimated=10" in text
    assert "candidates=10" in text
    assert "matched=10" in text
    assert "class Parts (60 objects)" in text


def test_planner_prefers_cheapest_sarg(parts_db):
    # Serial = 7 hits 1 object, Category = 'cat_1' hits 10: Serial wins.
    result = run_query(
        parts_db,
        "select * from Parts where Category = 'cat_1' and Serial = 7",
    )
    assert result.plan.index_attr == "Serial"
    assert len(result.rows) == 1


def test_updates_maintain_index_incrementally(parts_db):
    run_query(parts_db, "select * from Parts where Category = 'cat_3'")
    before = parts_db.indexes.stats["index.maintenance"]
    obj = parts_db.class_("Parts").members()[0]
    obj.set_attribute("Category", "moved")
    assert parts_db.indexes.stats["index.maintenance"] > before
    result = run_query(parts_db, "select * from Parts where Category = 'moved'")
    assert result.plan.access_path == "index-eq"
    assert [o.surrogate for o in result.objects] == [obj.surrogate]
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_3'")


def test_delete_removes_from_indexes(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 10")
    victim = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Serial") == 10
    ][0]
    victim.delete()
    result = run_query(parts_db, "select * from Parts where Serial = 10")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Serial >= 8")


def test_txn_abort_restores_index_entries(parts_db):
    run_query(parts_db, "select * from Parts where Category = 'cat_4'")
    obj = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Category") == "cat_4"
    ][0]
    txns = TransactionManager(parts_db)
    txn = txns.begin()
    txn.set(obj, "Category", "doomed")
    txn.abort()
    assert obj.get_member("Category") == "cat_4"
    result = run_query(parts_db, "select * from Parts where Category = 'doomed'")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_4'")


def test_version_revert_restores_index_entries(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 20")
    obj = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Serial") == 20
    ][0]
    guard = StateGuard(parts_db)
    guard.release(obj)
    with pytest.raises(VersionError):
        obj.set_attribute("Serial", 9999)
    assert obj.get_member("Serial") == 20
    result = run_query(parts_db, "select * from Parts where Serial = 9999")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Serial = 20")


def test_inherited_values_are_indexable():
    """The paper's implementations inherit interface data; an index over a
    type source sees transmitter updates through the chain."""
    db = Database(_uname("gates"))
    db.indexes.min_index_source = 0
    iface = db.catalog.define_object_type(
        "Iface", attributes={"Length": ANY}
    )
    all_of = db.catalog.define_inheritance_type("AllOfIface", iface, ["Length"])
    impl = db.catalog.define_object_type("Impl")
    impl.declare_inheritor_in(all_of)
    interfaces = [
        db.create_object(iface, Length=length) for length in (10, 20, 30)
    ]
    for interface in interfaces:
        db.create_object(impl, transmitter=interface)
    result = run_query(db, "select * from Impl where Length = 20")
    assert result.plan.access_path == "index-eq"
    assert len(result.rows) == 1
    # A transmitter update must be visible through the index immediately.
    interfaces[0].set_attribute("Length", 20)
    result = run_query(db, "select * from Impl where Length = 20")
    assert len(result.rows) == 2
    assert_queries_agree(db, "select * from Impl where Length = 20")


def test_schema_change_drops_and_rebuilds_indexes(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 1")
    dropped_before = parts_db.indexes.stats["index.dropped"]
    ObjectType(_uname("Unrelated"))  # any type definition bumps the epoch
    result = run_query(parts_db, "select * from Parts where Serial = 1")
    assert parts_db.indexes.stats["index.dropped"] > dropped_before
    assert result.plan.access_path == "index-eq"
    assert len(result.rows) == 1


def test_small_sources_stay_full_scan():
    db = Database(_uname("small"))
    thing = db.catalog.define_object_type("Thing", attributes={"n": ANY})
    db.create_class("Stuff", thing)
    for i in range(5):  # below the default min_index_source of 16
        db.create_object("Thing", class_name="Stuff", n=i)
    result = run_query(db, "select * from Stuff where n = 3")
    assert result.plan.access_path == "full-scan"
    assert db.indexes.stats["index.built"] == 0
    assert any("below index threshold" in note for note in result.plan.notes)


def test_objects_of_type_served_from_extent_index(parts_db):
    part = parts_db.catalog.type("Part")
    assert_type_index_agrees(parts_db, part)
    # O(result) service still matches the oracle after deletions.
    for obj in parts_db.class_("Parts").members()[:7]:
        obj.delete()
    assert_type_index_agrees(parts_db, part)


def test_database_select_goes_through_planner(parts_db):
    hits_before = parts_db.indexes.stats["index.hits"]
    selected = parts_db.select("Parts", "Category = 'cat_5'")
    assert parts_db.indexes.stats["index.hits"] > hits_before
    parts_db.indexes.auto = False
    oracle = parts_db.select("Parts", "Category = 'cat_5'")
    parts_db.indexes.auto = True
    assert [o.surrogate for o in selected] == [o.surrogate for o in oracle]


# ---------------------------------------------------------------------------
# executor satellites: top-k heap, distinct dedupe
# ---------------------------------------------------------------------------


def test_order_by_limit_uses_heap_and_matches_sort(parts_db):
    limited = run_query(
        parts_db, "select Serial from Parts order by Serial desc limit 7"
    )
    assert limited.plan.order == "top-7 heap desc"
    full = run_query(parts_db, "select Serial from Parts order by Serial desc")
    assert limited.rows == full.rows[:7]


def test_top_k_is_stable_for_duplicate_keys(parts_db):
    # Category has 10 duplicates per value; stability = extent order.
    limited = run_query(
        parts_db, "select * from Parts order by Category limit 12"
    )
    full = run_query(parts_db, "select * from Parts order by Category")
    assert [o.surrogate for o in limited.objects] == [
        o.surrogate for o in full.objects[:12]
    ]


def test_distinct_unhashable_rows_regression():
    db = Database(_uname("distinct"))
    thing = db.catalog.define_object_type("Thing", attributes={"v": ANY})
    db.create_class("Stuff", thing)
    values = [[1, 2], [1, 2], [3], "plain", "plain", [1, 2]]
    for value in values:
        db.create_object("Thing", class_name="Stuff", v=value)
    result = run_query(db, "select distinct v from Stuff")
    assert result.rows == [([1, 2],), ([3],), ("plain",)]


def test_distinct_hashable_equal_to_unhashable():
    # frozenset() == set(): the set-based fast path must not resurrect a
    # row already kept via the unhashable pool.
    db = Database(_uname("distinct2"))
    thing = db.catalog.define_object_type("Thing", attributes={"v": ANY})
    db.create_class("Stuff", thing)
    db.create_object("Thing", class_name="Stuff", v=set())
    db.create_object("Thing", class_name="Stuff", v=frozenset())
    result = run_query(db, "select distinct v from Stuff")
    assert len(result.rows) == 1


# ---------------------------------------------------------------------------
# surfaces: metrics, CLI
# ---------------------------------------------------------------------------


def test_metrics_snapshot_exposes_index_counters():
    from repro.obs.report import snapshot

    db = Database(_uname("obs"), observe=True)
    thing = db.catalog.define_object_type("Thing", attributes={"n": ANY})
    db.create_class("Stuff", thing)
    db.indexes.min_index_source = 0
    for i in range(20):
        db.create_object("Thing", class_name="Stuff", n=i)
    run_query(db, "select * from Stuff where n = 4")
    gauges = snapshot(db, include_events=False)["gauges"]
    for key in ("index.hits", "index.misses", "index.maintenance",
                "index.built", "index.stale_repairs"):
        assert key in gauges
    assert gauges["index.hits"] >= 1
    assert gauges["index.built"] >= 1


def test_cli_query_explain(tmp_path, capsys):
    from repro.cli import main
    from repro.ddl import load_schema
    from repro.ddl.paper import GATE_SCHEMA
    from repro.engine import save

    schema_path = tmp_path / "gates.ddl"
    schema_path.write_text(GATE_SCHEMA)
    db = Database("cli")
    load_schema(GATE_SCHEMA, db.catalog)
    for length in (10, 20, 30):
        iface = db.create_object("GateInterface", Length=length, Width=5)
        iface.subclass("Pins").create(InOut="IN")
    image_path = tmp_path / "image.json"
    save(db, str(image_path))
    assert main([
        "query", str(schema_path), str(image_path),
        "select Length from GateInterface where Length = 20", "--explain",
    ]) == 0
    out = capsys.readouterr().out
    assert "plan: select Length from GateInterface where Length = 20" in out
    assert "source:  type GateInterface" in out
    assert "access:" in out
    assert "estimated=" in out
    assert "(1 row(s))" in out


# ---------------------------------------------------------------------------
# the derived-state maintainer (repro.query.maintain)
# ---------------------------------------------------------------------------


def _gate_world(n_impls=5, observe=False):
    from repro.ddl.paper import load_gate_schema

    db = Database(_uname("cone"), observe=observe)
    load_gate_schema(db.catalog)
    db.indexes.min_index_source = 0
    impl_type = db.catalog.type("GateImplementation")
    iface = db.create_object("GateInterface", Length=10, Width=5)
    impls = [db.create_object(impl_type, transmitter=iface) for _ in range(n_impls)]
    return db, iface, impls, impl_type


@pytest.fixture
def cone_walks(monkeypatch):
    """Every propagation-cone walk, as its arguments."""
    from repro.core import inheritance

    walks = []
    walk = inheritance.propagation_cone

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(inheritance, "propagation_cone", counted)
    return walks


def test_observed_update_walks_its_cone_once(cone_walks):
    db, iface, impls, impl_type = _gate_world(observe=True)
    db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Length")
    assert db.views.view_for(impl_type) is not None
    maintenance = db.indexes.stats["index.maintenance"]
    refreshes = db.views.stats["query.view.refreshes"]
    del cone_walks[:]
    iface.set_attribute("Length", 42)
    assert cone_walks == [(iface, "Length")]
    # Counted once per mutation, by the batch size: one entry and one
    # view cell per implementation.
    assert db.indexes.stats["index.maintenance"] == maintenance + len(impls)
    assert db.views.stats["query.view.refreshes"] == refreshes + len(impls)
    assert db.obs.metrics.value("propagation.fanout_total") >= len(impls)
    assert_queries_agree(db, f"select * from {impl_type.name} where Length = 42")


def test_update_without_consumers_walks_no_cone(cone_walks):
    db, iface, impls, impl_type = _gate_world(observe=False)
    # An index on another member is no consumer of a Length update.
    db.indexes.ensure_value_index("type", impl_type.name, impl_type, "TimeBehavior")
    del cone_walks[:]
    iface.set_attribute("Length", 42)
    impls[0].set_attribute("TimeBehavior", 3)
    assert cone_walks == [(impls[0], "TimeBehavior")]
    del cone_walks[:]
    iface.set_attribute("Width", 7)
    assert cone_walks == []


def test_container_change_walks_only_for_a_container_index(cone_walks):
    db, iface, impls, impl_type = _gate_world(observe=True)
    # No view column holds a container, so a view is no consumer of a
    # container change; neither is an attached tap.
    assert db.views.view_for(impl_type) is not None
    refreshes = db.views.stats["query.view.refreshes"]
    del cone_walks[:]
    iface.subclass("Pins").create(InOut="IN")
    # (The new pin's own InOut write walks its cone, for the tap.)
    assert [walk for walk in cone_walks if walk[0] is iface] == []
    db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Pins")
    iface.subclass("Pins").create(InOut="OUT")
    assert [walk for walk in cone_walks if walk[0] is iface] == [(iface, "Pins")]
    assert db.views.stats["query.view.refreshes"] == refreshes


def test_container_change_refreshes_inherited_container_entries():
    db, iface, impls, impl_type = _gate_world()
    index = db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Pins")
    maintenance = db.indexes.stats["index.maintenance"]
    iface.subclass("Pins").create(InOut="IN")
    assert db.indexes.stats["index.maintenance"] == maintenance + len(impls)
    repairs = db.indexes.stats["index.stale_repairs"]
    index.validate(impls)
    assert db.indexes.stats["index.stale_repairs"] == repairs
    assert all(len(index._entries[o.surrogate].value) == 1 for o in impls)


def test_raising_handler_cannot_leave_derived_state_stale():
    db, iface, impls, impl_type = _gate_world()

    def veto(event):
        raise ReproError("handler failed")

    # Subscribed before the index and view exist: no subscription order
    # may decide whether they are maintained.
    db.events.subscribe("attribute_updated", veto)
    index = db.indexes.ensure_value_index("type", impl_type.name, impl_type, "Length")
    view = db.views.view_for(impl_type)
    with pytest.raises(ReproError):
        iface.set_attribute("Length", 31)
    for impl in impls:
        assert index._entries[impl.surrogate].value == 31
        assert view.columns[view.col_of["Length"]][view.row_of[impl.surrogate]] == 31


GATE_USE_DDL = """
obj-type GateUse =
    inheritor-in: SomeOf_Gate;
    attributes:
        UseLocation: Point;
end GateUse;
"""


def test_unchanged_values_are_restamped_not_repaired():
    from repro.ddl import load_schema
    from repro.ddl.paper import load_gate_schema

    db = Database(_uname("uses"))
    load_gate_schema(db.catalog)
    load_schema(GATE_USE_DDL, db.catalog)
    db.indexes.min_index_source = 0
    iface = db.create_object("GateInterface", Length=10, Width=5)
    impl = db.create_object("GateImplementation", transmitter=iface, TimeBehavior=7)
    other = db.create_object("GateImplementation", transmitter=iface, TimeBehavior=8)
    uses = [db.create_object("GateUse", transmitter=impl) for _ in range(9)]
    db.create_object("GateUse", transmitter=other)
    text = "select * from GateUse where TimeBehavior = 7"
    before = run_query(db, text)
    assert before.plan.access_path == "index-eq"
    repairs = db.indexes.stats["index.stale_repairs"]
    # Function is not even visible through SomeOf_Gate, but the write
    # moves the implementation's mutation epoch under all nine entries.
    impl.set_attribute("Function", [[True, False]])
    after = run_query(db, text)
    assert db.indexes.stats["index.stale_repairs"] == repairs
    assert [o.surrogate for o in after.objects] == [o.surrogate for o in uses]
    assert after.rows == before.rows
    # A value that did change behind the index's back is still repaired.
    impl._attrs["TimeBehavior"] = 9
    impl._mutation_epoch += 1
    assert run_query(db, text).rows == []
    assert len(run_query(db, "select * from GateUse where TimeBehavior = 9").rows) == 9
    assert db.indexes.stats["index.stale_repairs"] > repairs
    assert_queries_agree(db, text)


def test_sorted_ties_break_without_surrogate_compares(parts_db, monkeypatch):
    from repro.core.surrogate import Surrogate

    compares = []
    for name in ("__eq__", "__lt__", "__gt__", "__le__", "__ge__"):
        original = getattr(Surrogate, name)

        def counted(self, other, _original=original):
            compares.append(1)
            return _original(self, other)

        monkeypatch.setattr(Surrogate, name, counted)
    # Ten parts per category: every insert ties on rank.
    run_query(parts_db, "select * from Parts where Category > 'cat_2'")
    for obj in parts_db.class_("Parts").members()[:20]:
        obj.set_attribute("Category", "cat_9")
    result = run_query(parts_db, "select * from Parts where Category >= 'cat_9'")
    assert result.plan.access_path == "index-range"
    assert len(result.rows) == 20
    assert compares == []
