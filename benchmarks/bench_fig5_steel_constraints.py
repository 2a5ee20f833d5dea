"""E5 — Figure 5 / §5: constraint checking on weight-carrying structures.

The §5 schema concentrates the expression engine's features: quantified
constraints over relationship subclasses and participants, aggregates, and
the structure-level where restriction.  Expected shape: deep checking
grows linearly with the number of screwings; the where restriction is paid
once per screwing creation.
"""

from repro.workloads import generate_structure, steel_database


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [4] if suite.quick else [4, 16, 64]:

        @suite.case(f"deep_structure_check[{n}]")
        def deep_case(n=n):
            structure, _ = generate_structure(
                steel_database("fig5-bench"), n_girders=4, n_plates=4, n_screwings=n
            )
            return lambda: structure.check_constraints(True)

    @suite.case("single_screwing_check")
    def single_case():
        """One full ScrewingType evaluation: two counts, the nested
        quantifier, the aggregate sum."""
        _, screwings = generate_structure(steel_database("fig5-bench"), 1, 1, 1)
        return lambda: screwings[0].check_constraints()

    if suite.quick:
        return

    for n in [4, 16, 64]:

        @suite.case(f"generate_structure[{n}]")
        def generate_case(n=n):
            def build():
                return generate_structure(
                    steel_database("fig5-bench"), n_girders=4, n_plates=4,
                    n_screwings=n,
                )

            assert len(build()[1]) == n
            return build

    for n_bores in [2, 8, 32]:

        @suite.case(f"where_restriction_cost[{n_bores}]")
        def where_case(n_bores=n_bores):
            """The structure-level `for x in Bores: …` restriction vs. the
            number of bores a screwing joins."""
            structure, _ = generate_structure(steel_database("fig5-bench"), 1, 1, 1)
            girder_if = structure.subclass("Girders").members()[0] \
                .inheritance_links[0].transmitter
            bores = [
                girder_if.subclass("Bores").create(Diameter=12, Length=5)
                for _ in range(n_bores)
            ]

            def create_and_discard():
                structure.subrel("Screwings").create(
                    {"Bores": bores}, Strength=1
                ).delete()

            return create_and_discard
