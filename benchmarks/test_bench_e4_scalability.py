"""E4 — interactivity and scalability (paper §2.2: 60-second interactive limit).

The search space is "exponential in the complexity of the desired schema
mapping and the source database schema"; Prism bounds each discovery round
at 60 seconds.  This benchmark sweeps the target-schema width and the
ground-truth join size and checks every configuration stays interactive.
The table is written to ``REPORT_DIR/e4_scalability.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_LIMITS, write_report
from repro.evaluation.experiments import run_scalability_sweep
from repro.evaluation.reporting import format_table

_CONFIGS = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]
_ROWS: list[dict] = []


@pytest.mark.parametrize(
    "width,tables", _CONFIGS, ids=[f"w{w}t{t}" for w, t in _CONFIGS]
)
def test_e4_discovery_scales_with_width_and_joins(
    benchmark, mondial_db, width, tables
):
    def run() -> list[dict]:
        return run_scalability_sweep(
            mondial_db,
            widths=(width,),
            table_counts=(tables,),
            cases_per_config=1,
            scheduler="bayesian",
            limits=BENCH_LIMITS,
            seed=29 + width * 10 + tables,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS.extend(rows)
    for row in rows:
        benchmark.extra_info["candidates"] = row["candidates"]
        benchmark.extra_info["filters"] = row["filters"]
        # The paper's interactivity requirement: each round finishes within
        # the 60-second limit on laptop-scale data.
        assert not row["timed_out"]
        assert row["elapsed_seconds"] < 60.0


def test_e4_report(benchmark):
    if not _ROWS:
        pytest.skip("scalability benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = format_table(
        _ROWS,
        columns=["columns", "tables", "candidates", "filters", "validations",
                 "num_queries", "elapsed_seconds"],
        title="E4: discovery cost vs target width and ground-truth join size",
    )
    write_report("e4_scalability", table)
