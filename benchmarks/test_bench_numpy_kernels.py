"""NumPy semijoin kernels vs the generic streaming path on the exists hot path.

The e3/e4 experiments are dominated by existence probes: filter
validation issues thousands of ``exists``/``exists_batch`` calls whose
cost is pushdown scans plus join-key probing.  This harness measures
exactly that regime on both executor paths — the same deterministic
probe workload (single probes and batches, true and false outcomes,
joins that fail *in the join* rather than in pushdown) over a 3-table
chain, decided once with the array semijoin kernels
(``KERNEL_MIN_ROWS = 0``) and once on the generic row-streaming path
(``KERNEL_MIN_ROWS`` above every table's row count) — and asserts that
probe outcomes and the full :class:`ExecutionStats` counter set are
bit-for-bit identical across the two paths (the kernel path is
accounting-transparent by design).  It reports the kernel-to-generic
speedup without asserting a floor (kernel speed is gated end to end by
the ``synthetic-validate`` workload of ``benchmarks/e2e``) and writes
the comparison to ``REPORT_DIR/numpy_kernels.txt``.

The chain is built so join reachability is a congruence: ``T2`` row
``j`` reaches ``T0`` row ``j mod 2000``, ``T0``'s label classes are
``id mod 40`` and ``T2``'s are ``id mod 500``, so a (T0-label, T2-label)
probe is satisfiable iff the two class indexes agree mod
``gcd(40, 500) = 20`` — the workload's outcomes are exact and its false
probes carry non-empty selections on both endpoints, forcing real join
work instead of an early pushdown exit.

A tiny ``smoke`` benchmark (both paths, one batch + a text-text edge,
sub-second) runs in CI so kernel regressions fail fast without the full
workload.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.query.executor as executor_module
from benchmarks.conftest import write_report
from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.evaluation.reporting import format_table
from repro.query.executor import BatchProbe, ExecutionStats, Executor
from repro.query.pj_query import ProjectJoinQuery

#: ``KERNEL_MIN_ROWS`` per executor path: 0 sends every probe through the
#: semijoin kernels, a value above every table's row count sends none.
_KERNEL_MIN_ROWS = {"kernel": 0, "generic": 10**9}
_RESULTS: dict[str, dict] = {}


@contextmanager
def _executor_path(path: str):
    """Pin ``KERNEL_MIN_ROWS`` so every probe in the block takes ``path``."""
    saved = executor_module.KERNEL_MIN_ROWS
    executor_module.KERNEL_MIN_ROWS = _KERNEL_MIN_ROWS[path]
    try:
        yield
    finally:
        executor_module.KERNEL_MIN_ROWS = saved


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


def _workload() -> tuple[list[dict], list[list[BatchProbe]]]:
    """Deterministic single probes plus batches, mixed true/false.

    ``(a, b)`` pairs walk both congruence classes: satisfiable iff
    ``a % 20 == b % 20``, so roughly one probe in twenty is true and
    every false probe fails inside the join.
    """
    query = _probe_query()

    def predicates(a: int, b: int) -> dict:
        ga, hb = f"g{a}", f"h{b}"
        return {0: lambda v: v == ga, 1: lambda v: v == hb}

    singles = [
        predicates(a, (3 * a + offset) % _T2_CLASSES)
        for offset in (0, 1, 7, 20)
        for a in range(0, _T0_CLASSES, 5)
    ]
    batches = [
        [
            BatchProbe(query, predicates(a, (5 * a + offset) % _T2_CLASSES))
            for a in range(0, _T0_CLASSES, 4)
        ]
        for offset in (0, 2, 11, 20)
    ]
    return singles, batches


def _run_workload(
    database: Database, path: str
) -> tuple[list[bool], ExecutionStats]:
    query = _probe_query()
    singles, batches = _workload()
    executor = Executor(database)
    with _executor_path(path):
        outcomes = [
            executor.exists(query, cell_predicates=cp) for cp in singles
        ]
        for batch in batches:
            outcomes.extend(executor.exists_batch(batch))
    return outcomes, executor.stats


@pytest.fixture(scope="module")
def chain_dbs():
    """One identical chain per path (join indexes left cold).

    Join-index builds are counted in ``ExecutionStats``, so the paths
    must not share a store's join-index cache.
    """
    return {
        path: _build_chain(f"kernelbench-{path}") for path in _KERNEL_MIN_ROWS
    }


@pytest.mark.parametrize("path", list(_KERNEL_MIN_ROWS))
def test_numpy_kernels_e3e4_workload(benchmark, chain_dbs, path):
    outcomes, stats = benchmark.pedantic(
        _run_workload,
        args=(chain_dbs[path], path),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    _RESULTS[path] = {
        "outcomes": outcomes,
        "stats": stats,
        "seconds": benchmark.stats.stats.min,
    }
    benchmark.extra_info["path"] = path
    benchmark.extra_info["true_probes"] = sum(outcomes)


def test_numpy_kernels_report(benchmark, chain_dbs):
    """Join both paths into the report and assert bit-for-bit equality."""
    import time

    for path in _KERNEL_MIN_ROWS:
        if path not in _RESULTS:
            started = time.perf_counter()
            outcomes, stats = _run_workload(chain_dbs[path], path)
            _RESULTS[path] = {
                "outcomes": outcomes,
                "stats": stats,
                "seconds": time.perf_counter() - started,
            }
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    generic, kernel = _RESULTS["generic"], _RESULTS["kernel"]

    # Bit-for-bit identical probe outcomes and executor accounting.
    assert kernel["outcomes"] == generic["outcomes"]
    assert kernel["stats"] == generic["stats"]

    speedup = generic["seconds"] / kernel["seconds"]
    table_rows = [
        {
            "path": path,
            "seconds": round(_RESULTS[path]["seconds"], 4),
            "probes": len(_RESULTS[path]["outcomes"]),
            "true_probes": sum(_RESULTS[path]["outcomes"]),
            "rows_scanned": _RESULTS[path]["stats"].rows_scanned,
            "joins_performed": _RESULTS[path]["stats"].joins_performed,
        }
        for path in _KERNEL_MIN_ROWS
    ]
    table = format_table(
        table_rows,
        columns=["path", "seconds", "probes", "true_probes",
                 "rows_scanned", "joins_performed"],
        title="Existence-probe hot path: semijoin kernels vs generic path "
              f"(e3/e4-style workload, {_T0_ROWS}/{_T1_ROWS}/{_T2_ROWS}-row "
              "chain)",
    )
    summary = format_table(
        [{
            "speedup": f"{speedup:.1f}x",
            "identical_outcomes": True,
            "identical_stats": True,
        }],
        columns=["speedup", "identical_outcomes", "identical_stats"],
        title="Semijoin kernel summary (reported, no floor; "
              "bit-for-bit equality)",
    )
    write_report("numpy_kernels", table + "\n\n" + summary)


# ----------------------------------------------------------------------
# CI smoke: both paths, one batch + a text-text edge, sub-second.
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
    """Both paths on one small text-joined workload, equal bit for bit."""
    query = ProjectJoinQuery(
        (ColumnRef("L", "v"), ColumnRef("R", "w")),
        (ForeignKey("L", "k", "R", "k"),),
    )
    probes = [
        BatchProbe(query, {0: (lambda bound: lambda v: v > bound)(b)})
        for b in (10, 500, 1_500, 1_999)
    ]

    def run(path: str):
        executor = Executor(_smoke_database())
        with _executor_path(path):
            outcomes = [
                executor.exists(query, cell_predicates=p.cell_predicates)
                for p in probes
            ]
            outcomes.extend(executor.exists_batch(probes))
        return outcomes, executor.stats, executor

    generic_outcomes, generic_stats, generic_executor = run("generic")
    kernel_outcomes, kernel_stats, kernel_executor = benchmark.pedantic(
        run, args=("kernel",), rounds=1, iterations=1
    )
    assert kernel_outcomes == generic_outcomes
    assert kernel_stats == generic_stats
    # Each run must actually have taken its own path.
    assert kernel_executor._edge_kernels
    assert not generic_executor._edge_kernels
