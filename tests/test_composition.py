"""Tests for the composition layer (repro.composition)."""

import pytest

from repro.composition import (
    abstraction_chain,
    abstraction_tree,
    add_component,
    bill_of_materials,
    clone_object,
    components_of,
    configuration,
    copy_component,
    expand,
    implementations_of,
    interfaces_of,
    missing_components,
    provides_all_components,
    rebind,
    refine,
    stale_members,
    view_component,
    visible_image,
    where_used,
)
from repro.core import INTEGER, ObjectType
from repro.ddl.paper import load_gate_schema
from repro.engine import Database
from repro.errors import InheritanceError, UnknownAttributeError


@pytest.fixture
def db():
    db = Database("composition")
    load_gate_schema(db.catalog)
    return db


def make_interface(db, length=10, width=5, n_in=2):
    iface = db.create_object("GateInterface", Length=length, Width=width)
    for i in range(n_in):
        iface.subclass("Pins").create(InOut="IN", PinLocation=(0, i))
    iface.subclass("Pins").create(InOut="OUT", PinLocation=(9, 0))
    return iface


def make_composite(db, components=2):
    """A GateImplementation using `components` interface components."""
    own_if = make_interface(db, 40, 20)
    impl = db.create_object("GateImplementation", transmitter=own_if)
    used = []
    for i in range(components):
        component_if = make_interface(db, 10, 5)
        sub = add_component(impl, "SubGates", component_if, GateLocation=(i, 0))
        used.append((sub, component_if))
    return impl, own_if, used


class TestAddComponent:
    def test_component_data_visible_with_own_attrs(self, db):
        impl, own_if, used = make_composite(db, 1)
        sub, component_if = used[0]
        assert sub["Length"] == 10  # inherited from the component
        assert sub["GateLocation"].X == 0  # local placement
        assert len(sub["Pins"]) == 3

    def test_components_of(self, db):
        impl, _, used = make_composite(db, 2)
        pairs = components_of(impl)
        assert len(pairs) == 2
        assert {c.surrogate for _, c in pairs} == {
            c.surrogate for _, c in used
        }

    def test_component_update_visible(self, db):
        impl, _, used = make_composite(db, 1)
        sub, component_if = used[0]
        component_if.set_attribute("Width", 77)
        assert sub["Width"] == 77

    def test_ambiguous_rel_type_rejected(self, db):
        # The Gate type's SubGates element (ElementaryGate) declares no
        # inheritance relationship at all.
        gate = db.create_object("Gate")
        iface = make_interface(db)
        with pytest.raises(InheritanceError):
            add_component(gate, "SubGates", iface)


class TestInterfaces:
    def test_implementations_and_interfaces(self, db):
        iface = make_interface(db)
        impl_a = db.create_object("GateImplementation", transmitter=iface)
        impl_b = db.create_object("GateImplementation", transmitter=iface)
        assert set(implementations_of(iface)) == {impl_a, impl_b}
        assert interfaces_of(impl_a) == [iface]

    def test_abstraction_chain_three_levels(self, db):
        top = db.create_object("GateInterface_I")
        top.subclass("Pins").create(InOut="IN")
        iface = db.create_object("GateInterface", transmitter=top, Length=1, Width=1)
        impl = db.create_object("GateImplementation", transmitter=iface)
        chain = abstraction_chain(impl)
        assert chain == [impl, iface, top]

    def test_abstraction_tree(self, db):
        iface = make_interface(db)
        db.create_object("GateImplementation", transmitter=iface)
        db.create_object("GateImplementation", transmitter=iface)
        tree = abstraction_tree(iface)
        assert tree["object"] is iface and len(tree["inheritors"]) == 2

    def test_rebind_moves_inheritance(self, db):
        iface_a = make_interface(db, length=10)
        iface_b = make_interface(db, length=99)
        impl = db.create_object("GateImplementation", transmitter=iface_a)
        rebind(impl, iface_b)
        assert impl["Length"] == 99
        assert implementations_of(iface_a) == []

    def test_refine_walks_down_one_level(self, db):
        top = db.create_object("GateInterface_I")
        top.subclass("Pins").create(InOut="IN")
        concrete = db.create_object(
            "GateInterface", transmitter=top, Length=7, Width=7
        )
        # A composite whose component is bound at the abstract level; the
        # slot type must opt in to the abstract relationship (§4.2: "in the
        # early phases … composite objects may use components from abstract
        # levels of the hierarchy").
        own_if = make_interface(db)
        impl = db.create_object("GateImplementation", transmitter=own_if)
        rel = db.catalog.inheritance_type("AllOf_GateInterface_I")
        db.catalog.object_type("GateImplementation.SubGates").declare_inheritor_in(rel)
        sub = impl.subclass("SubGates").create(transmitter=top, via=rel)
        old, new = refine(sub)
        assert old is top and new is concrete
        assert sub.inheritance_links[0].transmitter is concrete

    def test_refine_ambiguous_returns_none(self, db):
        top = db.create_object("GateInterface_I")
        db.create_object("GateInterface", transmitter=top, Length=1, Width=1)
        db.create_object("GateInterface", transmitter=top, Length=2, Width=2)
        own_if = make_interface(db)
        impl = db.create_object("GateImplementation", transmitter=own_if)
        rel = db.catalog.inheritance_type("AllOf_GateInterface_I")
        db.catalog.object_type("GateImplementation.SubGates").declare_inheritor_in(rel)
        sub = impl.subclass("SubGates").create(transmitter=top, via=rel)
        old, new = refine(sub)
        assert old is top and new is None


class TestVisibleImageAndExpansion:
    def test_visible_image_merges_inherited_and_local(self, db):
        impl, own_if, _ = make_composite(db, 1)
        image = visible_image(impl)
        assert image["Length"] == 40  # inherited
        assert "SubGates" in image and len(image["SubGates"]) == 1
        assert image["surrogate"] == impl.surrogate

    def test_expand_collects_transmitters(self, db):
        impl, own_if, used = make_composite(db, 2)
        expansion = expand(impl)
        assert impl in expansion and own_if in expansion
        for sub, component_if in used:
            assert sub in expansion and component_if in expansion

    def test_expand_depth_zero_stops_at_composite(self, db):
        impl, own_if, used = make_composite(db, 1)
        expansion = expand(impl, depth=0)
        assert own_if not in expansion
        assert used[0][1] not in expansion

    def test_expansion_tree_shape(self, db):
        impl, own_if, used = make_composite(db, 1)
        expansion = expand(impl)
        tree = expansion.tree
        assert tree["object"] is impl
        assert tree["component"]["object"] is own_if
        subgates = tree["subobjects"]["SubGates"]
        assert subgates[0]["component"]["object"] is used[0][1]
        assert "attributes" in subgates[0]
        assert subgates[0]["attributes"]["GateLocation"].X == 0


class TestConfiguration:
    def test_flat_configuration(self, db):
        impl, _, used = make_composite(db, 3)
        tree = configuration(impl)
        assert len(tree.children) == 3
        assert tree.size() == 4

    def test_nested_configuration_descends_into_implementations(self, db):
        # leaf interface used by mid implementation; mid interface used by top.
        leaf_if = make_interface(db, 1, 1)
        mid_if = make_interface(db, 2, 2)
        mid_impl = db.create_object("GateImplementation", transmitter=mid_if)
        add_component(mid_impl, "SubGates", leaf_if)
        top_if = make_interface(db, 3, 3)
        top_impl = db.create_object("GateImplementation", transmitter=top_if)
        add_component(top_impl, "SubGates", mid_if)

        tree = configuration(top_impl)
        assert len(tree.children) == 1
        mid_node = tree.children[0]
        assert mid_node.component is mid_if
        assert mid_node.realisation is mid_impl
        assert len(mid_node.children) == 1
        assert mid_node.children[0].component is leaf_if

    def test_bill_of_materials(self, db):
        impl, _, _ = make_composite(db, 3)
        counts = bill_of_materials(impl)
        assert counts["GateInterface"] == 3

    def test_where_used(self, db):
        shared_if = make_interface(db)
        impl_a, _, _ = make_composite(db, 0)
        impl_b, _, _ = make_composite(db, 0)
        add_component(impl_a, "SubGates", shared_if)
        add_component(impl_b, "SubGates", shared_if)
        users = where_used(shared_if)
        assert {u.surrogate for u in users} == {impl_a.surrogate, impl_b.surrogate}

    def test_missing_components_detected(self, db):
        impl, _, _ = make_composite(db, 1)
        assert missing_components(impl) == []
        assert provides_all_components(impl)
        dangling = impl.subclass("SubGates").create()  # unbound slot
        assert missing_components(impl) == [dangling]
        assert not provides_all_components(impl)

    def test_depth_limited_configuration(self, db):
        leaf_if = make_interface(db, 1, 1)
        mid_if = make_interface(db, 2, 2)
        mid_impl = db.create_object("GateImplementation", transmitter=mid_if)
        add_component(mid_impl, "SubGates", leaf_if)
        top_if = make_interface(db, 3, 3)
        top_impl = db.create_object("GateImplementation", transmitter=top_if)
        add_component(top_impl, "SubGates", mid_if)
        tree = configuration(top_impl, max_depth=1)
        assert len(tree.children) == 1
        assert tree.children[0].children == []


class TestBaselines:
    def test_clone_is_deep_and_detached(self, db):
        iface = make_interface(db, length=10)
        twin = clone_object(iface)
        assert twin["Length"] == 10
        assert len(twin["Pins"]) == 3
        assert twin.surrogate != iface.surrogate
        iface.set_attribute("Length", 99)
        assert twin["Length"] == 10  # detached

    def test_clone_copies_subobjects_of_local_relationships(self):
        from repro.engine.integrity import check_integrity, sweep_constraints
        from repro.versions.diff import derive_version
        from repro.versions.graph import VersionGraph
        from repro.workloads.steel import generate_structure, steel_database

        steel = steel_database("clone-screwings")
        top, _ = generate_structure(steel)
        graph = VersionGraph(top)
        graph.add_version(top)
        derived = derive_version(graph, top)
        screwings = [
            rel for name in derived.subrel_names() for rel in derived.subrel(name)
        ]
        assert screwings
        for screwing in screwings:
            assert len(screwing.subclass("Bolt")) == 1
            assert len(screwing.subclass("Nut")) == 1
        assert sweep_constraints(steel) == []
        assert check_integrity(steel) == []

    def test_clone_remaps_local_relationship_participants(self, db):
        gate = db.create_object("Gate")
        a = gate.subclass("Pins").create(InOut="IN")
        b = gate.subclass("Pins").create(InOut="OUT")
        gate.subrel("Wires").create({"Pin1": a, "Pin2": b})
        twin = clone_object(gate)
        wires = twin.subrel("Wires").members()
        assert len(wires) == 1
        assert wires[0].participant("Pin1").parent is twin

    def test_copy_component_goes_stale(self, db):
        impl, _, _ = make_composite(db, 0)
        component_if = make_interface(db, length=10)
        copy = copy_component(impl, "SubGates", component_if, GateLocation=(0, 0))
        assert copy["Length"] == 10
        assert stale_members(copy, component_if) == []
        component_if.set_attribute("Length", 11)
        assert copy["Length"] == 10  # the copy does not follow
        assert stale_members(copy, component_if) == ["Length"]

    def test_view_component_is_fresh_but_leaks_everything(self, db):
        # Slot type without members of its own, as a raw view would be.
        slot_type = ObjectType("ViewSlot", attributes={"X": INTEGER})
        db.catalog.register(slot_type)
        holder_type = ObjectType("ViewHolder", subclasses={"Parts": slot_type})
        db.catalog.register(holder_type)
        holder = db.create_object("ViewHolder")
        component_if = make_interface(db, length=10)
        view = view_component(holder, "Parts", component_if)
        assert view["Length"] == 10
        component_if.set_attribute("Length", 11)
        assert view["Length"] == 11  # always fresh
        # ... but everything is visible, including members an interface
        # would hide; with the selective AllOf relationship the untouched
        # members stay hidden (compare TestValueInheritance permeability).
        assert view["Width"] == component_if["Width"]

    def test_inheritance_component_fresh_and_selective(self, db):
        impl, _, used = make_composite(db, 1)
        sub, component_if = used[0]
        component_if.set_attribute("Length", 123)
        assert sub["Length"] == 123  # fresh like a view
        with pytest.raises(UnknownAttributeError):
            sub.get_member("TimeBehavior")  # not in the interface image
