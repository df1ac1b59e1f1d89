"""Integration tests for the experiment runners (small, fast configurations).

These exercise every experiment of the "Benchmarks" section of
``docs/performance.md`` on the small company database so the whole
harness stays fast; the benchmarks run the same code on Mondial at full
size.
"""

from __future__ import annotations

import pytest

from repro.discovery.candidates import GenerationLimits
from repro.evaluation.experiments import (
    aggregate_resolution_sweep,
    aggregate_scheduler_comparison,
    build_cases,
    run_baseline_comparison,
    run_metadata_ablation,
    run_resolution_sweep,
    run_scalability_sweep,
    run_scheduler_comparison,
)
from repro.workloads.degrade import ResolutionLevel

LIMITS = GenerationLimits(max_candidates=150, max_assignments=300)


@pytest.fixture(scope="module")
def cases(company_db_session):
    return build_cases(company_db_session, count=2, num_columns=2, num_tables=2, seed=3)


class TestResolutionSweep:
    def test_rows_cover_every_case_and_level(self, company_db_session, cases):
        levels = (ResolutionLevel.EXACT, ResolutionLevel.DISJUNCTION)
        rows = run_resolution_sweep(
            company_db_session, cases, levels=levels, limits=LIMITS
        )
        assert len(rows) == len(cases) * len(levels)
        assert {row["level"] for row in rows} == {"exact", "disjunct"}
        assert all(row["num_queries"] >= 1 for row in rows)
        assert all(row["found_ground_truth"] for row in rows)

    def test_aggregation_produces_one_row_per_level(self, company_db_session, cases):
        levels = (ResolutionLevel.EXACT, ResolutionLevel.PARTIAL)
        rows = run_resolution_sweep(
            company_db_session, cases, levels=levels, limits=LIMITS
        )
        summary = aggregate_resolution_sweep(rows)
        assert [row["level"] for row in summary] == ["exact", "partial"]
        for row in summary:
            assert row["cases"] == len(cases)
            assert row["ground_truth_rate"] == 1.0
            assert row["mean_elapsed_seconds"] > 0


class TestSchedulerComparison:
    def test_prism_sits_between_filter_and_optimal(self, company_db_session, cases):
        rows = run_scheduler_comparison(
            company_db_session, cases, level=ResolutionLevel.EXACT, limits=LIMITS
        )
        assert len(rows) == len(cases)
        for row in rows:
            assert row["validations_optimal"] <= row["validations_bayesian"]
            assert row["validations_optimal"] <= row["validations_filter"]
            # All schedulers must return the same number of queries.
            assert row["queries_filter"] == row["queries_bayesian"]
            assert row["queries_filter"] == row["queries_optimal"]

    def test_aggregation_reports_gap_reduction(self, company_db_session, cases):
        rows = run_scheduler_comparison(
            company_db_session, cases, level=ResolutionLevel.EXACT, limits=LIMITS
        )
        summary = aggregate_scheduler_comparison(rows)
        assert summary["cases"] == len(cases)
        assert 0.0 <= summary["mean_gap_reduction"] <= 1.0
        assert summary["mean_validations_optimal"] <= summary["mean_validations_filter"]


class TestScalabilitySweep:
    def test_rows_cover_requested_grid(self, company_db_session):
        rows = run_scalability_sweep(
            company_db_session,
            widths=(2,),
            table_counts=(1, 2),
            cases_per_config=1,
            limits=LIMITS,
        )
        assert len(rows) == 2
        assert {row["tables"] for row in rows} == {1, 2}
        assert all(row["elapsed_seconds"] > 0 for row in rows)

    def test_width_smaller_than_tables_is_skipped(self, company_db_session):
        rows = run_scalability_sweep(
            company_db_session,
            widths=(2,),
            table_counts=(3,),
            cases_per_config=1,
            limits=LIMITS,
        )
        assert rows == []


class TestBaselineComparison:
    def test_baseline_only_supports_exact_level(self, company_db_session, cases):
        rows = run_baseline_comparison(
            company_db_session,
            cases,
            levels=(ResolutionLevel.EXACT, ResolutionLevel.SPARSE),
            limits=LIMITS,
        )
        by_level = {}
        for row in rows:
            by_level.setdefault(row["level"], []).append(row)
        assert all(row["baseline_supported"] for row in by_level["exact"])
        assert all(not row["baseline_supported"] for row in by_level["sparse"])
        # Prism keeps finding the ground truth even at the sparse level.
        assert all(row["prism_found_truth"] for row in by_level["exact"])

    def test_prism_matches_baseline_on_exact_specs(self, company_db_session, cases):
        rows = run_baseline_comparison(
            company_db_session, cases, levels=(ResolutionLevel.EXACT,), limits=LIMITS
        )
        for row in rows:
            assert row["baseline_found_truth"] == row["prism_found_truth"]


class TestMetadataAblation:
    def test_metadata_restricts_candidates(self, company_db_session, cases):
        rows = run_metadata_ablation(company_db_session, cases, limits=LIMITS)
        assert len(rows) == 2 * len(cases)
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
            assert with_metadata["num_queries"] <= without_metadata["num_queries"]
