"""E4 — Figure 4: composite expansion over growing hierarchies.

Expansion (§6) materialises a composite with its components.  Expected
shape: cost linear in the number of objects the expansion touches, i.e.
exponential in depth for a fixed fanout tree — and depth-limited expansion
cuts it correspondingly.
"""

from repro.composition import configuration, expand, provides_all_components
from repro.workloads import gate_database, generate_component_tree


def tree(depth):
    return generate_component_tree(gate_database("fig4-bench"), depth=depth, fanout=2)


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for depth in [2] if suite.quick else [1, 3, 5]:

        @suite.case(f"expand_full[{depth}]")
        def expand_case(depth=depth):
            top, created = tree(depth)
            assert len(expand(top).objects) > created
            return lambda: expand(top)

        @suite.case(f"configuration_tree[{depth}]")
        def config_case(depth=depth):
            top, created = tree(depth)
            assert configuration(top).size() == created
            return lambda: configuration(top)

    if suite.quick:
        return

    @suite.case("expand_depth_limited")
    def limited_case():
        top, _ = tree(5)
        assert len(expand(top, 1).objects) < len(expand(top).objects)
        return lambda: expand(top, 1)

    for depth in [1, 3]:

        @suite.case(f"provides_all_components[{depth}]")
        def provides_case(depth=depth):
            top, _ = tree(depth)
            assert provides_all_components(top)
            return lambda: provides_all_components(top)
