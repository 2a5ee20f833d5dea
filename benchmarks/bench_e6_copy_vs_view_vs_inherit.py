"""E6 — §2 ablation: copy vs. view vs. inheritance composition.

The paper's qualitative argument, measured on identical workloads:

* **incorporation** — copy pays O(component size); view and inheritance
  pay O(1);
* **read after component update** — copy reads stale data fast; view and
  inheritance read fresh data through one indirection;
* **visibility** — view leaks every member, inheritance only the
  permeable subset (asserted, not timed).
"""

from repro.composition import (
    add_component,
    copy_component,
    stale_members,
    view_component,
)
from repro.core import INTEGER, ObjectType
from repro.workloads import gate_database, make_implementation, make_interface

def db_with_view_holder():
    """A database with two baseline slot types.

    * ``CopySlot`` mirrors the component's structure (a Pins subclass), so
      copy composition must materialise the pins — the O(size) cost;
    * ``ViewSlot`` is bare, as a raw view requires (the view relationship
      would clash with locally declared members).
    """
    db = gate_database("e6-bench")
    pin_type = db.catalog.object_type("PinType")
    copy_slot = ObjectType(
        "CopySlot", attributes={"X": INTEGER}, subclasses={"Pins": pin_type}
    )
    view_slot = ObjectType("ViewSlot", attributes={"X": INTEGER})
    holder_type = ObjectType(
        "Holder", subclasses={"CopyParts": copy_slot, "ViewParts": view_slot}
    )
    db.catalog.register(copy_slot)
    db.catalog.register(view_slot)
    db.catalog.register(holder_type)
    return db


class TestVisibility:
    def test_view_leaks_everything_inherit_is_selective(self):
        db = db_with_view_holder()
        component = make_interface(db)
        holder = db.create_object("Holder")
        view = view_component(holder, "ViewParts", component)
        view_names = set(view.visible_member_names())
        assert {"Length", "Width", "Pins"} <= view_names

        composite = make_implementation(db, make_interface(db))
        slot = add_component(composite, "SubGates", component,
                             GateLocation={"X": 0, "Y": 0})
        rel = db.catalog.inheritance_type("AllOf_GateInterface")
        # Inheritance exposes exactly the permeable subset plus own data.
        assert set(rel.inheriting) == {"Length", "Width", "Pins"}
        assert "GateLocation" in slot.visible_member_names()


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for pins in [3] if suite.quick else [3, 30, 120]:

        @suite.case(f"copy_composition[{pins}]")
        def copy_case(pins=pins):
            db = db_with_view_holder()
            component = make_interface(db, n_in=pins - 1, n_out=1)
            holder = db.create_object("Holder")
            return lambda: copy_component(holder, "CopyParts", component)

        @suite.case(f"view_composition[{pins}]")
        def view_case(pins=pins):
            db = db_with_view_holder()
            component = make_interface(db, n_in=pins - 1, n_out=1)
            holder = db.create_object("Holder")
            return lambda: view_component(holder, "ViewParts", component)

        @suite.case(f"inheritance_composition[{pins}]")
        def inherit_case(pins=pins):
            db = gate_database("e6-bench")
            component = make_interface(db, n_in=pins - 1, n_out=1)
            composite = make_implementation(db, make_interface(db))
            return lambda: add_component(
                composite, "SubGates", component, GateLocation={"X": 0, "Y": 0}
            )

    @suite.case("inherit_read_fresh")
    def read_case():
        db = gate_database("e6-bench")
        component = make_interface(db, n_in=29, n_out=1)
        composite = make_implementation(db, make_interface(db))
        slot = add_component(
            composite, "SubGates", component, GateLocation={"X": 0, "Y": 0}
        )
        component.set_attribute("Length", 999)
        assert slot.get_member("Length") == 999
        return lambda: slot.get_member("Length")

    if suite.quick:
        return

    @suite.case("copy_read_is_local_but_stale")
    def copy_read_case():
        db = db_with_view_holder()
        component = make_interface(db, n_in=29, n_out=1)
        copy = copy_component(db.create_object("Holder"), "CopyParts", component)
        component.set_attribute("Length", 999)
        assert copy.get_member("Length") != 999  # stale!
        assert stale_members(copy, component) == ["Length"]
        return lambda: copy.get_member("Length")

    @suite.case("view_read_is_fresh")
    def view_read_case():
        db = db_with_view_holder()
        component = make_interface(db, n_in=29, n_out=1)
        view = view_component(db.create_object("Holder"), "ViewParts", component)
        component.set_attribute("Length", 999)
        assert view.get_member("Length") == 999
        return lambda: view.get_member("Length")
