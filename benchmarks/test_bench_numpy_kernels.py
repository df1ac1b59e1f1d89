"""NumPy semijoin kernels on the exists hot path.

The e3/e4 experiments are dominated by existence probes: filter
validation issues thousands of ``exists`` calls whose cost is pushdown
scans plus the semijoin sweep that decides each probe
(:mod:`repro.query.kernels`).  This harness measures exactly that regime
— a deterministic probe workload (single probes and batches, true and
false outcomes, joins that fail *in the join* rather than in pushdown)
over a 3-table chain — and asserts every outcome against the
congruence truth derived below.  It reports the kernel time without a
floor (kernel speed is gated end to end by the ``synthetic-validate``
workload of ``benchmarks/e2e``) and writes the report to
``REPORT_DIR/numpy_kernels.txt``.

The chain is built so join reachability is a congruence: ``T2`` row
``j`` reaches ``T0`` row ``j mod 2000``, ``T0``'s label classes are
``id mod 40`` and ``T2``'s are ``id mod 500``, so a (T0-label, T2-label)
probe is satisfiable iff the two class indexes agree mod
``gcd(40, 500) = 20`` — the workload's outcomes are exact and its false
probes carry non-empty selections on both endpoints, forcing real join
work instead of an early pushdown exit.

A tiny ``smoke`` benchmark (one batch + a text-text edge, sub-second)
runs in CI so kernel regressions fail fast without the full workload.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.constraints.values import ExactValue, Predicate
from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.evaluation.reporting import format_table
from repro.query.executor import BatchProbe, ExecutionStats, Executor
from repro.query.pj_query import ProjectJoinQuery

_RESULTS: dict[str, object] = {}


# Chain geometry (see the module docstring for the congruence argument).
_T0_ROWS = 2_000
_T1_ROWS = 20_000
_T2_ROWS = 40_000
_T0_CLASSES = 40
_T2_CLASSES = 500


def _build_chain(name: str) -> Database:
    """The benchmark chain T2 -> T1 -> T0."""
    database = Database(name)
    t0 = database.create_table(
        "T0", [Column("id", DataType.INT, primary_key=True),
               Column("label", DataType.TEXT)]
    )
    t1 = database.create_table(
        "T1", [Column("id", DataType.INT, primary_key=True),
               Column("parent_id", DataType.INT)]
    )
    t2 = database.create_table(
        "T2", [Column("id", DataType.INT, primary_key=True),
               Column("parent_id", DataType.INT),
               Column("label", DataType.TEXT)]
    )
    t0.insert_many([(i, f"g{i % _T0_CLASSES}") for i in range(_T0_ROWS)])
    t1.insert_many([(i, i % _T0_ROWS) for i in range(_T1_ROWS)])
    t2.insert_many(
        [(i, i % _T1_ROWS, f"h{i % _T2_CLASSES}") for i in range(_T2_ROWS)]
    )
    database.link("T1.parent_id", "T0.id")
    database.link("T2.parent_id", "T1.id")
    return database


def _probe_query() -> ProjectJoinQuery:
    return ProjectJoinQuery(
        (ColumnRef("T0", "label"), ColumnRef("T2", "label")),
        (ForeignKey("T1", "parent_id", "T0", "id"),
         ForeignKey("T2", "parent_id", "T1", "id")),
    )


def _workload() -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """Deterministic ``(a, b)`` label-class pairs: single probes plus
    batches, mixed true/false.

    The pairs walk both congruence classes: a probe is satisfiable iff
    ``a % 20 == b % 20``, so roughly one probe in twenty is true and
    every false probe fails inside the join.
    """
    singles = [
        (a, (3 * a + offset) % _T2_CLASSES)
        for offset in (0, 1, 7, 20)
        for a in range(0, _T0_CLASSES, 5)
    ]
    batches = [
        [(a, (5 * a + offset) % _T2_CLASSES) for a in range(0, _T0_CLASSES, 4)]
        for offset in (0, 2, 11, 20)
    ]
    return singles, batches


def _predicates(a: int, b: int) -> dict:
    return {0: ExactValue(f"g{a}"), 1: ExactValue(f"h{b}")}


def _expected_outcomes() -> list[bool]:
    """The congruence truth, in workload order."""
    singles, batches = _workload()
    pairs = singles + [pair for batch in batches for pair in batch]
    return [a % 20 == b % 20 for a, b in pairs]


def _run_workload(database: Database) -> tuple[list[bool], ExecutionStats]:
    query = _probe_query()
    singles, batches = _workload()
    executor = Executor(database)
    outcomes = [
        executor.exists(query, cell_predicates=_predicates(a, b))
        for a, b in singles
    ]
    for batch in batches:
        outcomes.extend(executor.exists_batch(
            [BatchProbe(query, _predicates(a, b)) for a, b in batch]
        ))
    return outcomes, executor.stats


@pytest.fixture(scope="module")
def chain_db():
    return _build_chain("kernelbench")


def test_numpy_kernels_e3e4_workload(benchmark, chain_db):
    outcomes, stats = benchmark.pedantic(
        _run_workload,
        args=(chain_db,),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    _RESULTS.update(
        outcomes=outcomes, stats=stats, seconds=benchmark.stats.stats.min
    )
    benchmark.extra_info["true_probes"] = sum(outcomes)


def test_numpy_kernels_report(benchmark, chain_db):
    """Assert the congruence truth and write the report."""
    import time

    if not _RESULTS:
        started = time.perf_counter()
        outcomes, stats = _run_workload(chain_db)
        _RESULTS.update(
            outcomes=outcomes,
            stats=stats,
            seconds=time.perf_counter() - started,
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    outcomes = _RESULTS["outcomes"]
    assert outcomes == _expected_outcomes()
    stats = _RESULTS["stats"]
    table = format_table(
        [{
            "seconds": round(_RESULTS["seconds"], 4),
            "probes": len(outcomes),
            "true_probes": sum(outcomes),
            "rows_scanned": stats.rows_scanned,
            "joins_performed": stats.joins_performed,
        }],
        columns=["seconds", "probes", "true_probes", "rows_scanned",
                 "joins_performed"],
        title="Existence-probe hot path: semijoin kernels "
              f"(e3/e4-style workload, {_T0_ROWS}/{_T1_ROWS}/{_T2_ROWS}-row "
              "chain; outcomes equal the congruence truth)",
    )
    write_report("numpy_kernels", table)


# ----------------------------------------------------------------------
# CI smoke: one batch + a text-text edge, sub-second.
# ----------------------------------------------------------------------
def _smoke_database() -> Database:
    database = Database("kernelsmoke")
    left = database.create_table(
        "L", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
    )
    right = database.create_table(
        "R", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
    )
    left.insert_many([(f"k{i % 23}", i) for i in range(2_000)])
    right.insert_many([(f"k{i % 29}", i * 3) for i in range(2_000)])
    database.link("L.k", "R.k")
    return database


def test_numpy_kernels_smoke(benchmark):
    """One small text-joined workload, equal to a set join in the test."""
    database = _smoke_database()
    query = ProjectJoinQuery(
        (ColumnRef("L", "v"), ColumnRef("R", "w")),
        (ForeignKey("L", "k", "R", "k"),),
    )
    bounds = (10, 500, 1_500, 1_999)
    probes = [
        BatchProbe(query, {0: Predicate(">", b)})
        for b in bounds
    ]

    def run():
        executor = Executor(database)
        outcomes = [
            executor.exists(query, cell_predicates=p.cell_predicates)
            for p in probes
        ]
        outcomes.extend(executor.exists_batch(probes))
        return outcomes, executor

    outcomes, executor = benchmark.pedantic(run, rounds=1, iterations=1)
    left = list(zip(database.table("L").column_values("k"),
                    database.table("L").column_values("v")))
    right_keys = set(database.table("R").column_values("k"))
    expected = [
        any(v > bound and k in right_keys for k, v in left)
        for bound in bounds
    ]
    assert outcomes == expected + expected
    # The semijoin sweep decided the probes.
    assert executor.cache.edge_kernels
