"""E1 — execution time versus constraint looseness (paper §2.4, claim 1).

"We observed that the overall execution time of user constraints did not
grow significantly as user constraints became loose (containing constraints
with disjunctions, value ranges, etc.)."

One benchmark per looseness level; each run performs a full discovery for
every workload case at that level.  The per-level mean discovery time table
is written to ``REPORT_DIR/e1_resolution_time.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_LIMITS, write_report
from repro.evaluation.experiments import (
    aggregate_resolution_sweep,
    run_resolution_sweep,
)
from repro.evaluation.reporting import format_table
from repro.workloads.degrade import DEFAULT_SWEEP_LEVELS, ResolutionLevel

_COLLECTED_ROWS: list[dict] = []


@pytest.mark.parametrize("level", DEFAULT_SWEEP_LEVELS, ids=lambda lvl: lvl.value)
def test_e1_discovery_time_per_level(benchmark, engine, mondial_db, cases, level):
    def run() -> list[dict]:
        return run_resolution_sweep(
            mondial_db,
            cases,
            levels=(level,),
            scheduler="bayesian",
            limits=BENCH_LIMITS,
            engine=engine,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _COLLECTED_ROWS.extend(rows)
    benchmark.extra_info["level"] = level.value
    benchmark.extra_info["mean_elapsed_seconds"] = sum(
        row["elapsed_seconds"] for row in rows
    ) / len(rows)
    # The paper's claim: no timeout at any looseness level and, whenever the
    # samples still span every target column, the ground truth keeps being
    # recovered.  Mostly-blank samples (partial/sparse) leave the mapping
    # genuinely ambiguous, so there we only record the recovery rate.
    assert all(not row["timed_out"] for row in rows)
    if level not in (ResolutionLevel.PARTIAL, ResolutionLevel.SPARSE):
        assert all(row["found_ground_truth"] for row in rows)


def test_e1_report(benchmark, cases):
    """Aggregate the sweep into the E1 table (runs after the level benches)."""
    if not _COLLECTED_ROWS:
        pytest.skip("level benchmarks did not run")
    summary = benchmark.pedantic(
        aggregate_resolution_sweep, args=(_COLLECTED_ROWS,), rounds=1, iterations=1
    )
    table = format_table(
        summary,
        columns=["level", "cases", "mean_elapsed_seconds", "mean_validations",
                 "ground_truth_rate", "timeout_rate"],
        title="E1: discovery time vs constraint looseness (Mondial synthetic cases)",
    )
    write_report("e1_resolution_time", table)
    exact = next(row for row in summary if row["level"] == ResolutionLevel.EXACT.value)
    loose_levels = [
        row for row in summary
        if row["level"] in (ResolutionLevel.DISJUNCTION.value,
                            ResolutionLevel.RANGE.value,
                            ResolutionLevel.MIXED.value)
    ]
    # Shape check: loosening constraints must not blow execution time up by
    # more than an order of magnitude over the exact case.
    for row in loose_levels:
        assert row["mean_elapsed_seconds"] <= max(exact["mean_elapsed_seconds"], 0.05) * 10
