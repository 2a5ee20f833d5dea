"""E8 — §6 ablation: generic-relationship selection policies.

Selection cost over growing version sets: the top-down query scans all
candidates (O(N)); bottom-up default and environment lookup are O(1) plus
the candidate-eligibility scan.  Re-resolution (unbind + select + bind) is
the assembly-time price of staying on the newest version.
"""

from repro.versions import (
    DefaultSelection,
    EnvironmentRegistry,
    EnvironmentSelection,
    GenericRelationship,
    QuerySelection,
    VersionGraph,
)
from repro.workloads import gate_database, make_interface


def graph_with_versions(db, n):
    anchor = make_interface(db)
    graph = VersionGraph(design_object=anchor)
    versions = []
    for i in range(n):
        version = make_interface(db, length=i + 1)
        graph.add_version(version)
        versions.append(version)
    return anchor, graph, versions


def fresh_slot(db):
    return db.create_object("GateImplementation")


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [10] if suite.quick else [10, 100]:

        @suite.case(f"re_resolve_default[{n}]")
        def re_resolve_case(n=n):
            db = gate_database("e8-bench")
            _, graph, versions = graph_with_versions(db, n)
            graph.set_default(versions[-1])
            rel = db.catalog.inheritance_type("AllOf_GateInterface")
            generic = GenericRelationship(fresh_slot(db), rel, graph)
            generic.resolve(DefaultSelection())
            policy = DefaultSelection()
            return lambda: generic.re_resolve(policy)

    for n in [10] if suite.quick else [10, 100, 400]:

        @suite.case(f"history_walk[{n}]")
        def history_case(n=n):
            db = gate_database("e8-bench")
            graph = VersionGraph(design_object=make_interface(db))
            base = None
            for i in range(n):
                last = make_interface(db, length=i + 1)
                graph.add_version(last, derived_from=base)
                base = last
            assert len(graph.history_of(last)) == n
            return lambda: graph.history_of(last)

    if suite.quick:
        return

    for n in [10, 100, 400]:

        @suite.case(f"query_selection[{n}]", setup=True)
        def query_case(n=n):
            db = gate_database("e8-bench")
            _, graph, versions = graph_with_versions(db, n)
            rel = db.catalog.inheritance_type("AllOf_GateInterface")
            policy = QuerySelection(f"Length = {n}")

            def resolve(generic):
                link = generic.resolve(policy)
                assert link.transmitter is versions[-1]

            return (lambda: GenericRelationship(fresh_slot(db), rel, graph)), resolve

        @suite.case(f"default_selection[{n}]", setup=True)
        def default_case(n=n):
            db = gate_database("e8-bench")
            _, graph, versions = graph_with_versions(db, n)
            graph.set_default(versions[-1])
            rel = db.catalog.inheritance_type("AllOf_GateInterface")
            policy = DefaultSelection()
            return (
                (lambda: GenericRelationship(fresh_slot(db), rel, graph)),
                (lambda generic: generic.resolve(policy)),
            )

        @suite.case(f"environment_selection[{n}]", setup=True)
        def environment_case(n=n):
            db = gate_database("e8-bench")
            anchor, graph, versions = graph_with_versions(db, n)
            registry = EnvironmentRegistry()
            registry.create("bench").assign(anchor, versions[n // 2])
            registry.activate("bench")
            rel = db.catalog.inheritance_type("AllOf_GateInterface")
            policy = EnvironmentSelection(registry)
            return (
                (lambda: GenericRelationship(fresh_slot(db), rel, graph)),
                (lambda generic: generic.resolve(policy)),
            )
