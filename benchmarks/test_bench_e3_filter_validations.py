"""E3 — filter-validation scheduling: Filter vs Prism vs optimum (§2.4, claim 3).

"Our approach significantly reduced the gap of the required number of
filter validations between Filter and the optimum (up to ~70%; on average
~30%), which shows our Bayesian-model-based approach can effectively
improve the filter scheduling."

One benchmark per scheduler measures the wall-clock of running all cases;
the validation-count table with per-case and aggregate gap reductions is
written to ``REPORT_DIR/e3_filter_validations.txt``.

Validation counts run under a *deterministic* budget — no wall-clock
limit (``time_limit=math.inf``) and a count-based cap that never binds
at this workload size — so the committed report is byte-stable across
machines and load conditions.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import BENCH_LIMITS, write_report
from repro.evaluation.experiments import (
    aggregate_scheduler_comparison,
    run_scheduler_comparison,
)
from repro.evaluation.reporting import format_table
from repro.workloads.degrade import ResolutionLevel

_LEVEL = ResolutionLevel.MIXED
#: Deterministic run budget: infinite wall clock, count-capped validations.
_BUDGET = {"time_limit": math.inf, "validation_budget": 10_000}
_RESULT_ROWS: dict[str, list[dict]] = {}


@pytest.mark.parametrize("scheduler", ["filter", "bayesian", "optimal"])
def test_e3_scheduler_wall_clock(benchmark, engine, mondial_db, cases, scheduler):
    def run() -> list[dict]:
        return run_scheduler_comparison(
            mondial_db,
            cases,
            level=_LEVEL,
            schedulers=(scheduler,),
            limits=BENCH_LIMITS,
            engine=engine,
            **_BUDGET,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULT_ROWS[scheduler] = rows
    total_validations = sum(row[f"validations_{scheduler}"] for row in rows)
    benchmark.extra_info["scheduler"] = scheduler
    benchmark.extra_info["total_validations"] = total_validations


def test_e3_gap_reduction_report(benchmark, engine, mondial_db, cases):
    """Join the per-scheduler runs into the paper's gap-reduction table."""
    if set(_RESULT_ROWS) != {"filter", "bayesian", "optimal"}:
        # Recompute in one pass (e.g. when a single scheduler bench was run).
        rows = benchmark.pedantic(
            run_scheduler_comparison,
            args=(mondial_db, cases),
            kwargs={
                "level": _LEVEL,
                "limits": BENCH_LIMITS,
                "engine": engine,
                **_BUDGET,
            },
            rounds=1,
            iterations=1,
        )
    else:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = []
        for case_index in range(len(cases)):
            merged: dict = {"case": cases[case_index].case_id, "level": _LEVEL.value}
            for scheduler, scheduler_rows in _RESULT_ROWS.items():
                merged.update(
                    {
                        key: value
                        for key, value in scheduler_rows[case_index].items()
                        if key.startswith(("validations_", "queries_"))
                    }
                )
            from repro.evaluation.metrics import gap_reduction

            merged["gap_reduction"] = gap_reduction(
                merged["validations_filter"],
                merged["validations_bayesian"],
                merged["validations_optimal"],
            )
            rows.append(merged)

    summary = aggregate_scheduler_comparison(rows)
    table = format_table(
        rows,
        columns=["case", "validations_filter", "validations_bayesian",
                 "validations_optimal", "gap_reduction"],
        title="E3: filter validations per scheduler (Mondial synthetic cases, "
              f"level={_LEVEL.value})",
    )
    summary_table = format_table(
        [summary],
        columns=["cases", "mean_validations_filter", "mean_validations_bayesian",
                 "mean_validations_optimal", "mean_gap_reduction",
                 "max_gap_reduction"],
        title="E3 summary (paper: avg gap reduction ~30%, max ~70%)",
    )
    write_report("e3_filter_validations", table + "\n\n" + summary_table)

    # Shape checks mirroring the paper's claim: the optimum is a lower bound,
    # Prism sits between Filter and the optimum, and the average gap
    # reduction is clearly positive.
    for row in rows:
        assert row["validations_optimal"] <= row["validations_bayesian"]
        assert row["validations_optimal"] <= row["validations_filter"]
        assert row["queries_filter"] == row["queries_bayesian"] == row["queries_optimal"]
    assert summary["mean_validations_bayesian"] <= summary["mean_validations_filter"]
    assert summary["mean_gap_reduction"] >= 0.2
