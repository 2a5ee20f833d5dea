"""Tests for save/load round-trips (repro.engine.persistence)."""

import json

import pytest

from repro.engine import Database, dump_image, load, load_image, save
from repro.errors import PersistenceError
from tests.conftest import add_pins, build_gate_database


def populated_db():
    db = build_gate_database("persist")
    iface = db.create_object("GateInterface", class_name="Interfaces", Length=40, Width=20)
    add_pins(iface)
    impl = db.create_object(
        "GateImplementation",
        class_name="Implementations",
        transmitter=iface,
        Function=[[True, False]],
    )
    sub = impl.subclass("SubGates").create(Function="AND", GatePosition=(1, 2))
    add_pins(sub)
    pins = iface.subclass("Pins").members()
    impl.subrel("Wires").create(
        {"Pin1": pins[0], "Pin2": sub.subclass("Pins").members()[0]},
        Corners=[(0, 0), (5, 5)],
    )
    return db, iface, impl, sub


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        db, iface, impl, sub = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)

        fresh = build_gate_database("persist")
        load(path, fresh)
        assert fresh.count() == db.count()

        iface2 = fresh.get(iface.surrogate)
        impl2 = fresh.get(impl.surrogate)
        assert iface2["Length"] == 40
        assert len(iface2["Pins"]) == 3
        # Value inheritance survives the round trip.
        assert impl2["Length"] == 40
        assert {p.surrogate for p in impl2["Pins"]} == {
            p.surrogate for p in iface2["Pins"]
        }
        # Structured attribute values are restored to normalised form.
        assert impl2["Function"] == ((True, False),)
        sub2 = fresh.get(sub.surrogate)
        assert sub2["GatePosition"].X == 1
        # Local relationships restored with participants.
        wires = impl2.subrel("Wires").members()
        assert len(wires) == 1 and len(wires[0]["Corners"]) == 2

    def test_classes_restored(self, tmp_path):
        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        assert fresh.get(iface.surrogate) in fresh.class_("Interfaces")
        assert fresh.get(impl.surrogate) in fresh.class_("Implementations")

    def test_surrogates_not_reused_after_load(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        newcomer = fresh.create_object("GateInterface")
        assert newcomer.surrogate.value > db.surrogates.last_issued

    def test_inherited_readonly_after_load(self, tmp_path):
        from repro.errors import InheritanceError

        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        with pytest.raises(InheritanceError):
            fresh.get(impl.surrogate).set_attribute("Length", 1)

    def test_update_propagates_after_load(self, tmp_path):
        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        fresh.get(iface.surrogate).set_attribute("Length", 77)
        assert fresh.get(impl.surrogate)["Length"] == 77

    def test_object_contained_in_relationship_round_trips(self):
        """A plain object's container owner can be a *relationship* (a
        steel Screwing carries Bolt/Nut in local subclasses); the loader
        must defer such containers until relationships materialise."""
        from repro.workloads.steel import generate_structure, steel_database

        db = steel_database("steel-rt")
        structure, screwings = generate_structure(db)
        image = dump_image(db)

        fresh = steel_database("steel-rt")
        load_image(image, fresh)
        assert fresh.count() == db.count()
        structure2 = fresh.get(structure.surrogate)
        screwings2 = structure2.subrel("Screwings").members()
        assert len(screwings2) == len(screwings)
        for screwing in screwings2:
            bolt = screwing.subclass("Bolt").members()[0]
            nut = screwing.subclass("Nut").members()[0]
            # The restored slots still inherit the §5-consistent values.
            assert bolt["Diameter"] == nut["Diameter"]
            assert bolt.parent is screwing


class TestImageValidation:
    def test_load_into_nonempty_database_rejected(self, tmp_path):
        db, *_ = populated_db()
        image = dump_image(db)
        with pytest.raises(PersistenceError):
            load_image(image, db)

    def test_unsupported_format_rejected(self):
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load_image({"format": 999, "objects": []}, fresh)

    def test_missing_type_in_catalog(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        bare = Database("persist")  # empty catalog
        with pytest.raises(PersistenceError):
            load(path, bare)

    def test_unreadable_path(self):
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load("/nonexistent/image.json", fresh)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load(str(path), fresh)

    def test_image_is_compact_and_indented_images_still_load(self, tmp_path):
        db, iface, impl, _ = populated_db()
        path = tmp_path / "image.json"
        save(db, str(path))
        text = path.read_text()
        assert "\n" not in text and ", " not in text
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(text), indent=1))
        fresh = build_gate_database("persist")
        load(str(indented), fresh)
        assert fresh.count() == db.count()
        assert fresh.get(impl.surrogate)["Length"] == 40

    def test_image_is_plain_json(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        with open(path) as f:
            image = json.load(f)
        assert image["format"] == 1
        assert isinstance(image["objects"], list)
