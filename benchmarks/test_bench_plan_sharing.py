"""Plan sharing — batched vs per-candidate validation (ISSUE 5).

The planner keys physical plans by canonical join-structure hash and the
validation driver batches filters sharing one join prefix into single
executor passes.  This harness measures both effects on an e3-style
filter-validation workload (ground-truth cases from a WorkloadGenerator,
MIXED resolution, the default bayesian scheduler) over a synthetic
database large enough that validation dominates the round — the regime
the paper's e3 experiment is about.  The report test runs the identical
workload with batching on and off: one untimed warm-up pair, then timed
pairs in alternating order, so drift between runs hits both modes
alike.  It asserts

* discovery results and validation counts are bit-for-bit identical
  across modes,
* the batched mode performs **>= 2x fewer join builds** (probe-step
  resolutions) than per-candidate execution, and
* the batched mode wins on wall clock: the median per-pair ratio of
  per-candidate to batched seconds is above 1,

and writes the comparison to ``REPORT_DIR/plan_sharing.txt``.

A tiny ``smoke`` benchmark (one batched pass over a four-probe batch on
a hand-built database) runs in CI so planner/batching regressions fail
fast without the full workload.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import write_report
from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.datasets.synthetic import generate_synthetic_database
from repro.discovery import GenerationLimits, Prism
from repro.evaluation.reporting import format_table
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator

_LEVEL = ResolutionLevel.MIXED
_MODES = ("per_candidate", "batched")
_TIMED_PAIRS = 3
_LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)


@pytest.fixture(scope="module")
def sharing_db():
    """A synthetic database big enough that validation dominates."""
    return generate_synthetic_database(
        num_tables=6, rows_per_table=2500, topology="random", seed=9
    )


@pytest.fixture(scope="module")
def base_engine(sharing_db):
    """One preprocessing pass shared by every per-round engine."""
    return Prism(sharing_db, limits=_LIMITS)


@pytest.fixture(scope="module")
def sharing_cases(sharing_db):
    generator = WorkloadGenerator(sharing_db, seed=21)
    return [
        generator.generate_case(num_columns=3, num_tables=2) for __ in range(3)
    ]


def _fresh_engine(base: Prism, batched: bool) -> Prism:
    """A cold-cache engine over the shared artifacts (cheap to build)."""
    return Prism(
        base.database,
        limits=_LIMITS,
        batch_validation=batched,
        train_bayesian=False,
        index=base.index,
        catalog=base.catalog,
        schema_graph=base.schema_graph,
        models=base.models,
    )


def _run_workload(base: Prism, cases, batched: bool):
    engine = _fresh_engine(base, batched)
    results = []
    for case in cases:
        spec = spec_for_level(
            case, _LEVEL, base.database, catalog=base.catalog, seed=0
        )
        results.append(engine.discover(spec, scheduler="bayesian"))
    return results


def _totals(results) -> dict:
    return {
        "joins_performed": sum(r.stats.joins_performed for r in results),
        "validations": sum(r.stats.validations for r in results),
        "validation_batches": sum(
            r.stats.validation_batches for r in results
        ),
        "batched_outcomes": sum(r.stats.batched_outcomes for r in results),
        "queries": [r.sql() for r in results],
    }


def test_plan_sharing_report(benchmark, base_engine, sharing_cases):
    """Time both modes in alternating pairs and assert the wins."""
    # The untimed warm-up pair also yields the deterministic counters.
    totals = {
        mode: _totals(
            _run_workload(base_engine, sharing_cases, mode == "batched")
        )
        for mode in _MODES
    }
    seconds: dict[str, list[float]] = {mode: [] for mode in _MODES}
    ratios = []
    for pair in range(_TIMED_PAIRS):
        for mode in _MODES if pair % 2 == 0 else reversed(_MODES):
            started = time.perf_counter()
            _run_workload(base_engine, sharing_cases, mode == "batched")
            seconds[mode].append(time.perf_counter() - started)
        ratios.append(seconds["per_candidate"][-1] / seconds["batched"][-1])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    per_candidate = totals["per_candidate"]
    batched = totals["batched"]

    # Identical discovery output, identical validation accounting.
    assert batched["queries"] == per_candidate["queries"]
    assert batched["validations"] == per_candidate["validations"]

    join_ratio = per_candidate["joins_performed"] / max(
        batched["joins_performed"], 1
    )
    speedup = statistics.median(ratios)

    table_rows = [
        {
            "mode": mode,
            "median_seconds": round(statistics.median(seconds[mode]), 4),
            "joins_performed": totals[mode]["joins_performed"],
            "validations": totals[mode]["validations"],
            "validation_batches": totals[mode]["validation_batches"],
            "batched_outcomes": totals[mode]["batched_outcomes"],
        }
        for mode in _MODES
    ]
    table = format_table(
        table_rows,
        columns=["mode", "median_seconds", "joins_performed",
                 "validations", "validation_batches", "batched_outcomes"],
        title="Plan sharing: batched vs per-candidate validation "
              f"(e3-style workload, level={_LEVEL.value}, "
              "6x2500-row synthetic db)",
    )
    summary_table = format_table(
        [{
            "join_build_reduction": f"{join_ratio:.1f}x",
            "wall_clock_speedup": f"{speedup:.2f}x",
            "pair_ratios": " ".join(f"{ratio:.2f}" for ratio in ratios),
            "identical_results": True,
        }],
        columns=["join_build_reduction", "wall_clock_speedup",
                 "pair_ratios", "identical_results"],
        title="Plan-sharing summary (target: >=2x fewer join builds, "
              "wall-clock win)",
    )
    write_report("plan_sharing", table + "\n\n" + summary_table)

    assert join_ratio >= 2.0, (
        f"batched validation only reduced join builds by {join_ratio:.2f}x"
    )
    assert speedup > 1.0, (
        f"batched validation was not a wall-clock win (median pair ratio "
        f"{speedup:.2f}x)"
    )


# ----------------------------------------------------------------------
# CI smoke: one tiny batched pass, no workload, sub-second.
# ----------------------------------------------------------------------
def _smoke_database() -> Database:
    database = Database("plansmoke")
    left = database.create_table(
        "L", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
    )
    right = database.create_table(
        "R", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
    )
    left.insert_many([(f"k{i % 17}", i) for i in range(400)])
    right.insert_many([(f"k{i % 17}", i * 10) for i in range(400)])
    database.link("L.k", "R.k")
    return database


def test_plan_sharing_smoke(benchmark):
    """One batched four-probe pass; asserts sharing vs per-probe exists."""
    database = _smoke_database()
    query = ProjectJoinQuery(
        (ColumnRef("L", "v"), ColumnRef("R", "w")),
        (ForeignKey("L", "k", "R", "k"),),
    )
    probes = [
        BatchProbe(query, {0: (lambda bound: lambda v: v > bound)(b)})
        for b in (10, 100, 200, 399)
    ]

    def run() -> int:
        executor = Executor(database)
        outcomes = executor.exists_batch(probes)
        assert outcomes == [True, True, True, False]
        return executor.stats.joins_performed

    batched_joins = benchmark(run)
    per_probe = Executor(database)
    for p in probes:
        per_probe.exists(p.query, cell_predicates=p.cell_predicates)
    assert per_probe.stats.joins_performed >= 2 * batched_joins
