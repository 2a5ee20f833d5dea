"""E17 — static analysis: lint cost vs. the failures it prevents.

The analyzer's pitch is "pay a parse-time pass, skip a runtime crash".
This experiment prices both sides:

* ``lint_gate`` / ``lint_steel`` — the full `analyze()` pass over the
  paper schemas (parse + model lowering + every REP1xx–REP4xx rule);
* ``lint_catalog`` — the same rules over an already-compiled catalog
  (no parse, plans already cached): the incremental re-lint cost;
* ``lint_scaling`` — rule cost as the schema grows (N types chained by
  inheritance relationships): the graph rules (Tarjan SCC, diamond
  detection) must stay near-linear in declarations;
* ``verify_differential`` — the full `--verify` harness on the gate
  schema (build + synthesize + oracle probes): the price of *proving*
  a clean bill of health rather than asserting it.

Expectation recorded in EXPERIMENTS.md: linting a paper-sized schema
costs milliseconds (far below one failed ``load_schema`` round-trip),
re-linting a compiled catalog is cheaper than parsing, and rule cost
grows roughly linearly with declaration count.
"""

from repro.analysis import analyze, model_from_catalog, run_model_rules, verify_against_runtime
from repro.ddl.paper import GATE_SCHEMA, STEEL_SCHEMA, load_gate_schema, load_steel_schema


def _chained_schema(n_types):
    """N object types where every even type transmits to its successor —
    plenty of inheritance edges for the graph rules to chew on."""
    parts = []
    for i in range(n_types):
        parts.append(
            f"obj-type T{i} = attributes: A{i}: integer; end T{i};"
        )
        if i % 2 == 1:
            parts.append(
                f"inher-rel-type R{i} = transmitter: object-of-type T{i - 1}; "
                f"inheritor: object; inheriting: A{i - 1}; end R{i};"
            )
            parts[-2] = (
                f"obj-type T{i} = inheritor-in: R{i}; "
                f"attributes: A{i}: integer; end T{i};"
            )
            # keep declaration order legal: rel before its inheritor
            parts[-2], parts[-1] = parts[-1], parts[-2]
    return "\n".join(parts)


def clean(lint):
    """``lint`` after checking that it reports no error."""
    assert not any(d.severity == "error" for d in lint())
    return lint


def register(suite):
    """The timed cases (see :mod:`repro.obs.bench`)."""

    @suite.case("lint_gate")
    def gate_case():
        return clean(lambda: analyze(GATE_SCHEMA))

    @suite.case("lint_gate_catalog")
    def catalog_case():
        catalog = load_gate_schema()
        return clean(lambda: run_model_rules(model_from_catalog(catalog)))

    for n_types in [32] if suite.quick else [8, 32, 128]:

        @suite.case(f"lint_scaling[{n_types}]")
        def scaling_case(n_types=n_types):
            source = _chained_schema(n_types)
            return clean(lambda: analyze(source))

    if suite.quick:
        return

    @suite.case("lint_steel")
    def steel_case():
        return clean(lambda: analyze(STEEL_SCHEMA))

    @suite.case("lint_steel_catalog")
    def steel_catalog_case():
        catalog = load_steel_schema()
        return clean(lambda: run_model_rules(model_from_catalog(catalog)))

    @suite.case("verify_differential_gate")
    def verify_case():
        report = verify_against_runtime(GATE_SCHEMA, strict=True)
        assert report.ok and report.built
        return lambda: verify_against_runtime(GATE_SCHEMA, strict=True)
