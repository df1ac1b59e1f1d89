"""E5 — the §1/§3 motivating demo: Lake Tahoe on Mondial.

Benchmarks the complete interactive round a demo attendee triggers: parse
the multiresolution constraints ("California || Nevada", "Lake Tahoe",
"DataType=='decimal' AND MinValue>=0"), discover the mappings, and build the
explanation graph of the selected query.  Verifies the paper's target SQL
query is among the results.  Report: ``REPORT_DIR/e5_demo_walkthrough.txt``.
"""

from __future__ import annotations

from benchmarks.conftest import write_report
from repro.constraints.parser import parse_metadata_constraint, parse_value_constraint
from repro.constraints.spec import MappingSpec
from repro.evaluation.reporting import format_table
from repro.explain.graph import QueryGraph
from repro.explain.render import to_ascii

_TARGET_SQL = (
    "SELECT geo_lake.Province, Lake.Name, Lake.Area "
    "FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name"
)


def _build_spec() -> MappingSpec:
    spec = MappingSpec(3)
    spec.add_sample_cells(
        [
            parse_value_constraint("California || Nevada"),
            parse_value_constraint("Lake Tahoe"),
            None,
        ]
    )
    spec.set_metadata(
        2, parse_metadata_constraint("DataType=='decimal' AND MinValue>=0")
    )
    return spec


def test_e5_lake_tahoe_walkthrough(benchmark, engine):
    def run():
        spec = _build_spec()
        result = engine.discover(spec)
        sqls = result.sql()
        index = sqls.index(_TARGET_SQL) if _TARGET_SQL in sqls else 0
        graph = QueryGraph.from_query(result.queries[index], spec=spec)
        return result, to_ascii(graph)

    result, explanation = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _TARGET_SQL in result.sql()
    assert "California || Nevada" in explanation
    benchmark.extra_info["num_queries"] = result.num_queries
    benchmark.extra_info["validations"] = result.stats.validations

    rows = [
        {
            "num_satisfying_queries": result.num_queries,
            "candidates": result.stats.num_candidates,
            "filters": result.stats.num_filters,
            "validations": result.stats.validations,
            "elapsed_seconds": result.stats.elapsed_seconds,
            "target_query_found": _TARGET_SQL in result.sql(),
        }
    ]
    table = format_table(rows, title="E5: Lake Tahoe demo walk-through (Mondial)")
    write_report("e5_demo_walkthrough", table + "\n\nExplanation graph:\n" + explanation)


def test_e5_exact_sample_round(benchmark, engine):
    """The same target schema described with a fully exact sample (§1, Table 1)."""

    def run():
        spec = MappingSpec(3)
        spec.add_sample_cells(
            [
                parse_value_constraint("California"),
                parse_value_constraint("Lake Tahoe"),
                parse_value_constraint("497"),
            ]
        )
        return engine.discover(spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _TARGET_SQL in result.sql()
    benchmark.extra_info["num_queries"] = result.num_queries
