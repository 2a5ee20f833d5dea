"""Shared schema, mutation steps and freshness probes for the derived-state
oracle properties in ``test_indexes.py`` and ``test_views.py``.

The world is chosen so a propagation walk that ignored permeability, or
skipped container events, would be caught:

* ``Base`` holds ``alpha``, ``beta``, a ``Parts`` subclass and a ``Ties``
  local relationship subclass; ``Sub`` inherits ``alpha``, ``Parts`` and
  ``Ties`` from it but declares its **own** ``beta`` — the relationship
  hides ``Base.beta``;
* ``Leaf`` inherits ``alpha`` and ``beta`` from a ``Sub``, so a ``Leaf``
  sits two hops below a ``Base`` for ``alpha`` but reads ``beta`` from
  its ``Sub``.
"""

from types import SimpleNamespace

from hypothesis import strategies as st

from repro.core import resolution
from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY
from repro.core.inheritance import InheritanceRelationshipType
from repro.core.objtype import ObjectType
from repro.core.reltype import RelationshipType
from repro.query.indexes import extract_value


def make_schema(uname):
    """The world's types, registered under unique names."""
    part = ObjectType(uname("Part"), attributes={"n": ANY})
    tie = RelationshipType(uname("Tie"), relates={"a": part})
    base = ObjectType(
        uname("Base"),
        attributes={"alpha": ANY, "beta": AttributeSpec("beta", ANY, default=0)},
        subclasses={"Parts": part},
        subrels={"Ties": tie},
    )
    rel = InheritanceRelationshipType(
        uname("AllOfBase"), transmitter_type=base,
        inheriting=["alpha", "Parts", "Ties"],
    )
    sub = ObjectType(uname("Sub"), attributes={"beta": ANY})
    sub.declare_inheritor_in(rel)
    leaf_rel = InheritanceRelationshipType(
        uname("SomeOfSub"), transmitter_type=sub, inheriting=["alpha", "beta"]
    )
    leaf = ObjectType(uname("Leaf"))
    leaf.declare_inheritor_in(leaf_rel)
    return SimpleNamespace(part=part, tie=tie, base=base, rel=rel, sub=sub,
                           leaf_rel=leaf_rel, leaf=leaf)


#: Steps on the world's extra structure: leaves and container content.
STRUCTURAL_ACTIONS = (
    st.tuples(st.just("create_leaf"), st.integers(0, 20)),
    st.tuples(st.just("add_part"), st.integers(0, 20), st.integers(0, 3)),
    st.tuples(st.just("remove_part"), st.integers(0, 20)),
    st.tuples(st.just("add_tie"), st.integers(0, 20)),
    st.tuples(st.just("remove_tie"), st.integers(0, 20)),
)


def seed_chain(db, world, transmitter):
    """A ``Sub`` bound to ``transmitter`` and a ``Leaf`` bound to that
    ``Sub``, with one part on ``transmitter``: from the first step on,
    container and ``alpha`` changes have a two-hop cone."""
    transmitter.subclass("Parts").create(n=0)
    sub = db.create_object(world.sub, class_name="Things", beta=1)
    db.bind(sub, transmitter, world.rel)
    leaf = db.create_object(world.leaf, class_name="Things")
    db.bind(leaf, sub, world.leaf_rel)
    return [sub, leaf]


def structural_step(db, world, objs, pick, step):
    """Apply one of :data:`STRUCTURAL_ACTIONS`; True when it was one."""
    kind = step[0]
    if kind == "create_leaf":
        obj = db.create_object(world.leaf, class_name="Things")
        transmitter = pick(step[1])
        if transmitter is not None and transmitter.object_type is world.sub:
            db.bind(obj, transmitter, world.leaf_rel)
        objs.append(obj)
    elif kind == "add_part":
        pick(step[1]).subclass("Parts").create(n=step[2])
    elif kind == "remove_part":
        parts = pick(step[1]).subclass("Parts")
        if len(parts):
            parts.remove(parts.members()[0])
    elif kind == "add_tie":
        obj = pick(step[1])
        parts = obj.subclass("Parts").members()
        if parts:
            obj.subrel("Ties").create({"a": parts[-1]})
    elif kind == "remove_tie":
        ties = pick(step[1]).subrel("Ties").members()
        if ties:
            ties[0].delete()
    else:
        return False
    return True


def _same(left, right):
    if isinstance(left, list) and isinstance(right, list):
        return [o.surrogate for o in left] == [o.surrogate for o in right]
    return type(left) is type(right) and left == right


def assert_derived_state_fresh(db):
    """No index entry passes epoch validation with a stale value, and
    every cell of a current view holds what a live read returns."""
    epoch = resolution.schema_epoch()  # stale layouts are rebuilt, not kept
    for index in db.indexes._value_indexes.values():
        if index.schema_epoch != epoch:
            continue
        for entry in index._entries.values():
            obj = entry.obj
            if (entry.binding_epoch == obj._binding_epoch
                    and entry.holder_mutation == entry.holder._mutation_epoch):
                assert _same(entry.value, extract_value(obj, index.attr)), (
                    index.label, obj)
    for view in db.views._views.values():
        if view.schema_epoch != epoch:
            continue
        for surrogate, row in view.row_of.items():
            if surrogate in view.tainted:
                continue
            obj = db.get(surrogate)
            for name, column in zip(view.names, view.columns):
                assert _same(column[row], extract_value(obj, name)), (
                    view.type.name, name, obj)
