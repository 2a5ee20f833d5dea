"""E12 — ablation: query-language execution scale.

Queries over growing extents: where-filtering and projection are linear in
the candidate count, ordering adds the sort, aggregates in the where pay
per-object collection scans (compare `count(Pins)` vs. plain attribute
predicates).
"""

from repro.query import parse_query
from repro.workloads import gate_database, make_interface


def library(n):
    db = gate_database("e12")
    db.create_class("Cells", "GateInterface")
    for i in range(n):
        iface = make_interface(db, length=(i * 7) % 100, width=(i * 3) % 20)
        db.add_to_class(iface, "Cells")
    return db


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""
    for n in [100] if suite.quick else [10, 100, 400]:

        @suite.case(f"attribute_filter[{n}]")
        def filter_case(n=n):
            db = library(n)
            query = "select Length from Cells where Length > 50"
            assert len(db.query(query)) == sum(
                1 for i in range(n) if (i * 7) % 100 > 50
            )
            return lambda: db.query(query)

        @suite.case(f"aggregate_filter[{n}]")
        def aggregate_case(n=n):
            db = library(n)
            query = "select * from Cells where count(Pins) = 3"
            assert len(db.query(query)) == n
            return lambda: db.query(query)

        @suite.case(f"order_by_limit[{n}]")
        def order_case(n=n):
            db = library(n)
            query = "select Length from Cells order by Length desc limit 5"
            assert len(db.query(query)) == min(5, n)
            return lambda: db.query(query)

    @suite.case("parse")
    def parse_case():
        text = (
            "select distinct Length, Length * Width from Cells "
            "where count(Pins) = 3 and Length > 10 order by Width desc limit 7"
        )
        return lambda: parse_query(text)
