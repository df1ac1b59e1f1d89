"""Ablation — failure-probability estimator and filter granularity.

Two design choices are worth ablating (the "Benchmarks" section of
``docs/performance.md`` lists every experiment):

* the failure-probability estimator behind filter scheduling (naive
  full-candidate validation vs path-length heuristic vs Bayesian models vs
  the optimal oracle), and
* whether metadata constraints actually shrink the candidate space.

Reports: ``REPORT_DIR/ablation_scheduler.txt`` and
``REPORT_DIR/ablation_metadata.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_LIMITS, write_report
from repro.evaluation.experiments import (
    run_metadata_ablation,
    run_scheduler_comparison,
)
from repro.evaluation.metrics import mean
from repro.evaluation.reporting import format_table
from repro.workloads.degrade import ResolutionLevel

_SCHEDULERS = ("naive", "filter", "bayesian", "optimal")


def test_ablation_scheduler_validations(benchmark, engine, mondial_db, cases):
    def run() -> list[dict]:
        return run_scheduler_comparison(
            mondial_db,
            cases,
            level=ResolutionLevel.DISJUNCTION,
            schedulers=_SCHEDULERS,
            limits=BENCH_LIMITS,
            engine=engine,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    summary = [
        {
            "scheduler": scheduler,
            "mean_validations": mean(
                row[f"validations_{scheduler}"] for row in rows
            ),
        }
        for scheduler in _SCHEDULERS
    ]
    table = format_table(
        summary,
        title="Ablation: mean filter validations per scheduling policy "
              "(disjunction-level constraints)",
    )
    write_report("ablation_scheduler", table)

    by_name = {row["scheduler"]: row["mean_validations"] for row in summary}
    # The oracle lower-bounds everything; the Bayesian policy must not be
    # worse than the path-length baseline on average.
    assert by_name["optimal"] <= by_name["bayesian"]
    assert by_name["optimal"] <= by_name["filter"]
    assert by_name["bayesian"] <= by_name["filter"] * 1.05
    for scheduler in _SCHEDULERS:
        benchmark.extra_info[scheduler] = by_name[scheduler]


def test_ablation_metadata_constraints(benchmark, mondial_db, cases):
    def run() -> list[dict]:
        return run_metadata_ablation(mondial_db, cases, limits=BENCH_LIMITS)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        rows,
        columns=["case", "variant", "candidates", "filters", "validations",
                 "num_queries", "elapsed_seconds"],
        title="Ablation: effect of metadata constraints on the candidate space "
              "(sparse samples)",
    )
    write_report("ablation_metadata", table)

    for case in cases:
        with_metadata = next(
            row for row in rows
            if row["case"] == case.case_id and row["variant"] == "with_metadata"
        )
        without_metadata = next(
            row for row in rows
            if row["case"] == case.case_id and row["variant"] == "without_metadata"
        )
        assert with_metadata["candidates"] <= without_metadata["candidates"]
