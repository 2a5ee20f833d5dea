"""E3 — Figure 3: building composites through the component relationship.

Measures incorporating components into a composite: the inheritance
relationship pays O(1) per component regardless of component size, and the
same relationship type serves interface and component roles.
"""

from repro.composition import add_component, components_of
from repro.workloads import (
    gate_database,
    make_implementation,
    make_interface,
)


def fresh_composite(db):
    return make_implementation(db, make_interface(db, length=200, width=100))


def composite_with(db, n_components):
    composite = fresh_composite(db)
    component_if = make_interface(db)
    for i in range(n_components):
        add_component(
            composite, "SubGates", component_if, GateLocation={"X": i, "Y": 0}
        )
    return composite


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for pins in [30] if suite.quick else [3, 30, 120]:

        @suite.case(f"add_component[{pins}pins]")
        def add_case(pins=pins):
            """Incorporation cost must not grow with component size (the
            data is linked, not moved)."""
            db = gate_database("fig3-bench")
            component_if = make_interface(db, n_in=pins - 1, n_out=1)
            composite = fresh_composite(db)
            return lambda: add_component(
                composite, "SubGates", component_if, GateLocation={"X": 0, "Y": 0}
            )

    for n in [5] if suite.quick else [5, 25, 100]:

        @suite.case(f"components_of[{n}]")
        def inspect_case(n=n):
            composite = composite_with(gate_database("fig3-bench"), n)
            assert len(components_of(composite)) == n
            return lambda: components_of(composite)

        @suite.case(f"read_all_component_data[{n}]")
        def read_case(n=n):
            """Touch every slot's inherited Length (the composite's view)."""
            composite = composite_with(gate_database("fig3-bench"), n)
            return lambda: sum(slot["Length"] for slot in composite["SubGates"])

    if suite.quick:
        return

    for n in [5, 25, 100]:

        @suite.case(f"add_components[{n}]", setup=True)
        def add_many_case(n=n):
            db = gate_database("fig3-bench")
            component_if = make_interface(db)

            def incorporate(composite):
                for i in range(n):
                    add_component(
                        composite, "SubGates", component_if,
                        GateLocation={"X": i, "Y": 0},
                    )

            return (lambda: fresh_composite(db)), incorporate
