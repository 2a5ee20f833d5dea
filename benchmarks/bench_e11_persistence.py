"""E11 — ablation: persistence scale.

Save/load round-trip cost over growing instance populations: both should
be linear in object count, and a loaded database must preserve the value-
inheritance read path (asserted).
"""

from repro.engine import Database, dump_image, load_image
from repro.ddl.paper import load_gate_schema
from repro.workloads import gate_database, generate_library


def library_db(n_interfaces):
    db = gate_database("e11")
    generate_library(db, n_interfaces, implementations_per_interface=2)
    return db


def fresh_target():
    db = Database("e11")
    load_gate_schema(db.catalog)
    return db


class TestPersistenceScale:
    def test_loaded_inheritance_is_live(self):
        db = library_db(5)
        image = dump_image(db)
        target = fresh_target()
        load_image(image, target)
        impls = target.objects_of_type("GateImplementation", include_subtypes=False)
        assert impls
        impl = impls[0]
        iface = impl.inheritance_links[0].transmitter
        iface.set_attribute("Length", 499)
        assert impl["Length"] == 499


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [10] if suite.quick else [10, 50, 200]:

        @suite.case(f"dump_image[{n}]")
        def dump_case(n=n):
            db = library_db(n)
            assert len(dump_image(db)["objects"]) == db.count()
            return lambda: dump_image(db)

        @suite.case(f"load_image[{n}]")
        def load_case(n=n):
            image = dump_image(library_db(n))

            def run():
                # The fresh target's schema load is part of the round-trip.
                load_image(image, fresh_target())

            return run
