"""Experiment runners reproducing the paper's evaluation (§2.4).

Each function runs one experiment of the "Benchmarks" section of
``docs/performance.md`` and returns plain dictionaries (one per
measurement) so the benchmark harness can render them as tables.  Aggregation helpers compute
the per-level / per-scheduler summaries the paper reports narratively.

* E1 / E2 — :func:`run_resolution_sweep`: execution time and number of
  satisfying queries as constraints loosen.
* E3 — :func:`run_scheduler_comparison`: filter validations for the Filter
  baseline, Prism (Bayesian) and the optimum, with gap reductions.
* E4 — :func:`run_scalability_sweep`: discovery time versus target-schema
  width and join size.
* E6 — :func:`run_baseline_comparison`: sample-driven (MWeaver-style)
  baseline versus Prism on degraded (non-exact) specs.
* Ablation — :func:`run_metadata_ablation`: effect of metadata constraints
  on the candidate space and validations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.mweaver import MWeaverBaseline
from repro.constraints.spec import MappingSpec
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.discovery.candidates import GenerationLimits
from repro.discovery.engine import Prism
from repro.evaluation.metrics import gap_reduction, mean
from repro.workloads.degrade import (
    DEFAULT_SWEEP_LEVELS,
    ResolutionLevel,
    spec_for_level,
)
from repro.workloads.generator import WorkloadCase, WorkloadGenerator

__all__ = [
    "build_cases",
    "run_resolution_sweep",
    "aggregate_resolution_sweep",
    "run_scheduler_comparison",
    "aggregate_scheduler_comparison",
    "run_scalability_sweep",
    "run_baseline_comparison",
    "run_metadata_ablation",
]

_DEFAULT_SCHEDULERS = ("filter", "bayesian", "optimal")


def build_cases(
    database: Database,
    count: int = 5,
    num_columns: int = 3,
    num_tables: int = 2,
    seed: int = 0,
) -> list[WorkloadCase]:
    """Synthesise ``count`` ground-truth cases from ``database``."""
    generator = WorkloadGenerator(database, seed=seed)
    return generator.generate_cases(
        count, num_columns=num_columns, num_tables=num_tables
    )


def _make_engine(
    database: Database,
    time_limit: float,
    limits: Optional[GenerationLimits],
) -> Prism:
    return Prism(database, time_limit=time_limit, limits=limits)


# ----------------------------------------------------------------------
# E1 / E2: resolution sweep
# ----------------------------------------------------------------------
def run_resolution_sweep(
    database: Database,
    cases: Sequence[WorkloadCase],
    levels: Sequence[ResolutionLevel] = DEFAULT_SWEEP_LEVELS,
    scheduler: str = "bayesian",
    time_limit: float = 60.0,
    validation_budget: Optional[int] = None,
    seed: int = 0,
    limits: Optional[GenerationLimits] = None,
    engine: Optional[Prism] = None,
) -> list[dict]:
    """E1/E2: run every case at every looseness level.

    Returns one row per (case, level) with the discovery time, the number
    of satisfying queries, the validation count and whether the ground
    truth was recovered.
    """
    engine = engine or _make_engine(database, time_limit, limits)
    catalog = engine.catalog
    rows: list[dict] = []
    for case in cases:
        for level in levels:
            spec = spec_for_level(case, level, database, catalog=catalog, seed=seed)
            result = engine.discover(
                spec,
                scheduler=scheduler,
                time_limit=time_limit,
                validation_budget=validation_budget,
            )
            rows.append(
                {
                    "case": case.case_id,
                    "level": level.value,
                    "elapsed_seconds": result.stats.elapsed_seconds,
                    "num_queries": result.num_queries,
                    "candidates": result.stats.num_candidates,
                    "validations": result.stats.validations,
                    "found_ground_truth": any(
                        case.matches_query(query) for query in result.queries
                    ),
                    "timed_out": result.timed_out,
                }
            )
    return rows


def aggregate_resolution_sweep(rows: Sequence[dict]) -> list[dict]:
    """Per-level aggregation of the resolution sweep (E1/E2 summary)."""
    levels = []
    for row in rows:
        if row["level"] not in levels:
            levels.append(row["level"])
    summary = []
    for level in levels:
        level_rows = [row for row in rows if row["level"] == level]
        summary.append(
            {
                "level": level,
                "cases": len(level_rows),
                "mean_elapsed_seconds": mean(
                    row["elapsed_seconds"] for row in level_rows
                ),
                "mean_num_queries": mean(row["num_queries"] for row in level_rows),
                "mean_validations": mean(row["validations"] for row in level_rows),
                "ground_truth_rate": mean(
                    1.0 if row["found_ground_truth"] else 0.0 for row in level_rows
                ),
                "timeout_rate": mean(
                    1.0 if row["timed_out"] else 0.0 for row in level_rows
                ),
            }
        )
    return summary


# ----------------------------------------------------------------------
# E3: scheduler comparison (filter validations / gap to optimum)
# ----------------------------------------------------------------------
def run_scheduler_comparison(
    database: Database,
    cases: Sequence[WorkloadCase],
    level: ResolutionLevel = ResolutionLevel.MIXED,
    schedulers: Sequence[str] = _DEFAULT_SCHEDULERS,
    time_limit: float = 60.0,
    validation_budget: Optional[int] = None,
    seed: int = 0,
    limits: Optional[GenerationLimits] = None,
    engine: Optional[Prism] = None,
) -> list[dict]:
    """E3: validations per scheduler on the same specs.

    Returns one row per case with the validation counts of every scheduler
    plus the per-case gap reduction of Prism relative to the Filter
    baseline (when defined).
    """
    engine = engine or _make_engine(database, time_limit, limits)
    catalog = engine.catalog
    rows: list[dict] = []
    for case in cases:
        spec = spec_for_level(case, level, database, catalog=catalog, seed=seed)
        row: dict = {"case": case.case_id, "level": level.value}
        per_scheduler: dict[str, int] = {}
        num_queries: dict[str, int] = {}
        for scheduler in schedulers:
            result = engine.discover(
                spec,
                scheduler=scheduler,
                time_limit=time_limit,
                validation_budget=validation_budget,
            )
            per_scheduler[scheduler] = result.stats.validations
            num_queries[scheduler] = result.num_queries
            row[f"validations_{scheduler}"] = result.stats.validations
            row[f"queries_{scheduler}"] = result.num_queries
        if "filter" in per_scheduler and "bayesian" in per_scheduler and (
            "optimal" in per_scheduler
        ):
            row["gap_reduction"] = gap_reduction(
                per_scheduler["filter"],
                per_scheduler["bayesian"],
                per_scheduler["optimal"],
            )
        rows.append(row)
    return rows


def aggregate_scheduler_comparison(rows: Sequence[dict]) -> dict:
    """E3 summary: mean/max gap reduction and mean validations per scheduler."""
    reductions = [
        row["gap_reduction"]
        for row in rows
        if row.get("gap_reduction") is not None
    ]
    summary: dict = {
        "cases": len(rows),
        "mean_gap_reduction": mean(reductions),
        "max_gap_reduction": max(reductions) if reductions else 0.0,
    }
    schedulers = sorted(
        {
            key.removeprefix("validations_")
            for row in rows
            for key in row
            if key.startswith("validations_")
        }
    )
    for scheduler in schedulers:
        summary[f"mean_validations_{scheduler}"] = mean(
            row[f"validations_{scheduler}"]
            for row in rows
            if f"validations_{scheduler}" in row
        )
    return summary


# ----------------------------------------------------------------------
# E4: scalability sweep
# ----------------------------------------------------------------------
def run_scalability_sweep(
    database: Database,
    widths: Sequence[int] = (2, 3, 4),
    table_counts: Sequence[int] = (1, 2, 3),
    cases_per_config: int = 2,
    level: ResolutionLevel = ResolutionLevel.EXACT,
    scheduler: str = "bayesian",
    time_limit: float = 60.0,
    validation_budget: Optional[int] = None,
    seed: int = 0,
    limits: Optional[GenerationLimits] = None,
) -> list[dict]:
    """E4: discovery time versus target width and ground-truth join size."""
    engine = _make_engine(database, time_limit, limits)
    generator = WorkloadGenerator(database, seed=seed)
    rows: list[dict] = []
    for num_tables in table_counts:
        for width in widths:
            if width < num_tables:
                continue
            for __ in range(cases_per_config):
                case = generator.generate_case(
                    num_columns=width, num_tables=num_tables
                )
                spec = spec_for_level(
                    case, level, database, catalog=engine.catalog, seed=seed
                )
                result = engine.discover(
                    spec,
                    scheduler=scheduler,
                    time_limit=time_limit,
                    validation_budget=validation_budget,
                )
                rows.append(
                    {
                        "columns": width,
                        "tables": num_tables,
                        "case": case.case_id,
                        "elapsed_seconds": result.stats.elapsed_seconds,
                        "candidates": result.stats.num_candidates,
                        "filters": result.stats.num_filters,
                        "validations": result.stats.validations,
                        "num_queries": result.num_queries,
                        "timed_out": result.timed_out,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# E6: sample-driven baseline comparison
# ----------------------------------------------------------------------
def run_baseline_comparison(
    database: Database,
    cases: Sequence[WorkloadCase],
    levels: Sequence[ResolutionLevel] = (
        ResolutionLevel.EXACT,
        ResolutionLevel.DISJUNCTION,
        ResolutionLevel.SPARSE,
    ),
    time_limit: float = 60.0,
    validation_budget: Optional[int] = None,
    seed: int = 0,
    limits: Optional[GenerationLimits] = None,
) -> list[dict]:
    """E6: MWeaver-style exact-sample baseline versus Prism per level.

    For each (case, level): whether the baseline can even ingest the spec,
    and whether each system recovers the ground-truth mapping.
    """
    engine = _make_engine(database, time_limit, limits)
    baseline = MWeaverBaseline(database, time_limit=time_limit, limits=limits)
    rows: list[dict] = []
    for case in cases:
        for level in levels:
            spec = spec_for_level(case, level, database, catalog=engine.catalog,
                                  seed=seed)
            baseline_supported = baseline.supports(spec)
            baseline_found = False
            if baseline_supported:
                baseline_result = baseline.discover(spec)
                baseline_found = any(
                    case.matches_query(query) for query in baseline_result.queries
                )
            prism_result = engine.discover(
                spec, time_limit=time_limit, validation_budget=validation_budget
            )
            rows.append(
                {
                    "case": case.case_id,
                    "level": level.value,
                    "baseline_supported": baseline_supported,
                    "baseline_found_truth": baseline_found,
                    "prism_found_truth": any(
                        case.matches_query(query) for query in prism_result.queries
                    ),
                    "prism_num_queries": prism_result.num_queries,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Ablation: metadata constraints
# ----------------------------------------------------------------------
def run_metadata_ablation(
    database: Database,
    cases: Sequence[WorkloadCase],
    time_limit: float = 60.0,
    validation_budget: Optional[int] = None,
    seed: int = 0,
    limits: Optional[GenerationLimits] = None,
) -> list[dict]:
    """Effect of metadata constraints on the candidate space (DESIGN ablation).

    Uses the SPARSE level (mostly-blank samples) with and without its
    metadata constraints and reports candidate/validation counts.
    """
    engine = _make_engine(database, time_limit, limits)
    rows: list[dict] = []
    for case in cases:
        spec_with = spec_for_level(
            case, ResolutionLevel.SPARSE, database, catalog=engine.catalog, seed=seed
        )
        spec_without = MappingSpec(spec_with.num_columns, samples=spec_with.samples)
        for label, spec in (("with_metadata", spec_with),
                            ("without_metadata", spec_without)):
            result = engine.discover(
                spec, time_limit=time_limit, validation_budget=validation_budget
            )
            rows.append(
                {
                    "case": case.case_id,
                    "variant": label,
                    "candidates": result.stats.num_candidates,
                    "filters": result.stats.num_filters,
                    "validations": result.stats.validations,
                    "num_queries": result.num_queries,
                    "elapsed_seconds": result.stats.elapsed_seconds,
                }
            )
    return rows
