"""Sketch statistics — HLL-informed validation on skewed data.

The planner's classic containment model misfires on Zipf-skewed join keys
with dangling foreign keys: raw row/distinct counts say a join is dense
while almost no key actually matches.  The sketch layer's HLL overlap
estimates steer join orders and the scheduler's costs there; they must
never change what discovery returns, because the semijoin sweep alone
decides every probe.

This harness builds a 4-table chain of 100k-row tables with ``skew=1.1``
and ``dangling_fk_fraction=0.98`` (every probe pays a semijoin sweep
over these tables) and drives two workloads with sketches on and off:

* **discovery** — seven multi-sample specs whose samples constrain the
  tail table's ``label`` (and a second column on ``T1``); for the "dead"
  specs every sampled label's rows have dangling parents, so the sweep
  refutes their probes at the ``T3`` → ``T2`` fold;
* **probe pass** — 32 ``exists`` calls inside one
  :meth:`~repro.query.executor.Executor.round` (as ``discover()`` runs
  its probes) over a 3-table structure, pairing dead ``T3`` labels with
  ``T1`` labels.

The report test asserts that discovery results and probe outcomes are
bit-for-bit identical across modes, and that sketch estimates are used
with sketches on and never with them off.  Join steps and wall clock are
reported, not asserted: the probe pass is timed after one untimed
warm-up pass per mode, in alternating pairs, so drift between runs hits
both modes alike.  The comparison is written to
``REPORT_DIR/sketch_stats.txt``.

A small ``smoke`` benchmark (4k-row tables) runs in CI so sketch
regressions fail fast without the full workload.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import pytest

from benchmarks.conftest import write_report
from repro.constraints.parser import parse_value_constraint
from repro.constraints.spec import MappingSpec
from repro.dataset.schema import ColumnRef
from repro.datasets.synthetic import generate_synthetic_database
from repro.discovery import GenerationLimits, Prism
from repro.evaluation.reporting import format_table
from repro.query.pj_query import ProjectJoinQuery

_MODES = ("sketches", "raw")
_TIMED_PAIRS = 9
_ROWS = 100_000
_SKEW = 1.1
_DANGLING = 0.98
_SEED = 9
_LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)
#: Deterministic run budget: infinite wall clock, count-capped validations.
_BUDGET = {"time_limit": math.inf, "validation_budget": 10_000}
_DISCOVERY: dict[str, dict] = {}


# ----------------------------------------------------------------------
# Workload construction (built once; rebuilding specs between runs
# would reintroduce the report wobble the deterministic budget removes)
# ----------------------------------------------------------------------
def _label_pools(database, rows):
    """Dead tail-table labels and live label chains, read off the data.

    A ``T3`` label is *dead* when every one of its rows has a dangling
    ``parent_id`` — no candidate joining through ``T3`` can ever match
    it, which the sweep's fold over ``T2.id`` finds.  A
    *live pair* is a ``(T3.label, T1.label)`` combination realized by an
    actual parent chain, so specs built from live pairs discover
    non-empty results.
    """
    t3 = database.table("T3")
    by_label = defaultdict(list)
    for label, parent in zip(
        t3.column_values("label"), t3.column_values("parent_id")
    ):
        by_label[label].append(parent)
    dead = sorted(
        label
        for label, parents in by_label.items()
        if all(parent >= rows for parent in parents)
    )
    t2 = database.table("T2")
    t1 = database.table("T1")
    t2_rows = {v: i for i, v in enumerate(t2.column_values("id"))}
    t1_rows = {v: i for i, v in enumerate(t1.column_values("id"))}
    t2_parent = t2.column_values("parent_id")
    t1_label = t1.column_values("label")
    t3_label = t3.column_values("label")
    live_pairs = set()
    for row, parent in enumerate(t3.column_values("parent_id")):
        if parent in t2_rows:
            grandparent = t2_parent[t2_rows[parent]]
            if grandparent in t1_rows:
                live_pairs.add((t3_label[row], t1_label[t1_rows[grandparent]]))
    t1_labels = sorted(set(t1_label))
    return dead, sorted(live_pairs), t1_labels


def _build_specs(dead, live_pairs, t1_labels):
    """Five dead specs and two live specs, eight two-cell samples each."""
    specs = []
    for start in range(0, 40, 8):
        spec = MappingSpec(num_columns=3)
        for offset, label in enumerate(dead[start:start + 8]):
            spec.add_sample_cells([
                parse_value_constraint(label),
                parse_value_constraint(
                    t1_labels[(start + 3 * offset) % len(t1_labels)]
                ),
                None,
            ])
        specs.append(spec)
    for start in (0, 8):
        spec = MappingSpec(num_columns=3)
        for t3_label, t1_label in live_pairs[start:start + 8]:
            spec.add_sample_cells([
                parse_value_constraint(t3_label),
                parse_value_constraint(t1_label),
                None,
            ])
        specs.append(spec)
    return specs


@pytest.fixture(scope="module")
def skewed_db():
    """Zipf-skewed chain with dangling FKs."""
    return generate_synthetic_database(
        num_tables=4,
        rows_per_table=_ROWS,
        topology="chain",
        seed=_SEED,
        skew=_SKEW,
        dangling_fk_fraction=_DANGLING,
    )


@pytest.fixture(scope="module")
def skewed_base(skewed_db):
    """One preprocessing pass (index, catalog+sketches, models) shared
    by every per-mode engine."""
    return Prism(skewed_db, limits=_LIMITS)


@pytest.fixture(scope="module")
def sketch_specs(skewed_db):
    dead, live_pairs, t1_labels = _label_pools(skewed_db, _ROWS)
    return _build_specs(dead, live_pairs, t1_labels)


@pytest.fixture(scope="module")
def probe_pass(skewed_db):
    """Probes over one structure: dead T3 labels x T1 labels, as
    (query, cell constraints) pairs."""
    dead, __, t1_labels = _label_pools(skewed_db, _ROWS)
    foreign_keys = list(skewed_db.foreign_keys)
    fk_t3_t2 = next(fk for fk in foreign_keys if fk.child_table == "T3")
    fk_t2_t1 = next(fk for fk in foreign_keys if fk.child_table == "T2")
    query = ProjectJoinQuery(
        (
            ColumnRef("T3", "label"),
            ColumnRef("T2", "label"),
            ColumnRef("T1", "label"),
        ),
        (fk_t3_t2, fk_t2_t1),
    )
    t3_constraints = [parse_value_constraint(label) for label in dead[:4]]
    t1_constraints = [parse_value_constraint(label) for label in t1_labels[:8]]
    return [
        (query, {0: a, 2: b}) for a in t3_constraints for b in t1_constraints
    ]


def _fresh_engine(base: Prism, sketches: bool) -> Prism:
    """A cold-cache engine over the shared artifacts (cheap to build)."""
    return Prism(
        base.database,
        limits=_LIMITS,
        use_sketches=sketches,
        train_bayesian=False,
        index=base.index,
        catalog=base.catalog,
        schema_graph=base.schema_graph,
        models=base.models,
    )


def _run_discovery(base: Prism, specs, sketches: bool):
    engine = _fresh_engine(base, sketches)
    return [engine.discover(spec, **_BUDGET) for spec in specs]


def _discovery_totals(results) -> dict:
    return {
        "joins_performed": sum(r.stats.joins_performed for r in results),
        "sketch_estimates_used": sum(
            r.stats.sketch_estimates_used for r in results
        ),
        "num_queries": sum(r.num_queries for r in results),
        "queries": [r.sql() for r in results],
    }


def _probe_round(executor, probes) -> list[bool]:
    """Decide ``probes`` inside one round, as ``discover()`` does."""
    with executor.round():
        return [executor.exists(query, cells) for query, cells in probes]


def _time_probe_pairs(base: Prism, probes) -> tuple[dict, list[float]]:
    """Time the probe pass of both modes in alternating pairs.

    One untimed warm-up pass per mode builds the plan and edge kernels
    and yields the outcomes; then ``_TIMED_PAIRS`` pairs alternate which
    mode runs first.  Returns per-mode results and the per-pair ratios
    of raw to sketch seconds.
    """
    executors = {
        mode: _fresh_engine(base, mode == "sketches").executor
        for mode in _MODES
    }
    outcomes = {
        mode: _probe_round(executor, probes)
        for mode, executor in executors.items()
    }
    seconds: dict[str, list[float]] = {mode: [] for mode in _MODES}
    ratios = []
    for pair in range(_TIMED_PAIRS):
        for mode in _MODES if pair % 2 == 0 else reversed(_MODES):
            started = time.perf_counter()
            _probe_round(executors[mode], probes)
            seconds[mode].append(time.perf_counter() - started)
        ratios.append(seconds["raw"][-1] / seconds["sketches"][-1])
    probes_by_mode = {
        mode: {
            "seconds": statistics.median(seconds[mode]),
            "outcomes": outcomes[mode],
            "joins_performed": executors[mode].stats.joins_performed,
        }
        for mode in _MODES
    }
    return probes_by_mode, ratios


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", _MODES)
def test_sketch_discovery(benchmark, skewed_base, sketch_specs, mode):
    sketches = mode == "sketches"
    results = benchmark.pedantic(
        _run_discovery,
        args=(skewed_base, sketch_specs, sketches),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    _DISCOVERY[mode] = {
        "totals": _discovery_totals(results),
        "seconds": benchmark.stats.stats.min,
    }
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["joins_performed"] = _DISCOVERY[mode]["totals"][
        "joins_performed"
    ]


def test_sketch_stats_report(benchmark, skewed_base, sketch_specs, probe_pass):
    """Join both modes into the sketch report and assert their parity."""
    for mode in _MODES:
        sketches = mode == "sketches"
        if mode not in _DISCOVERY:
            started = time.perf_counter()
            results = _run_discovery(skewed_base, sketch_specs, sketches)
            _DISCOVERY[mode] = {
                "totals": _discovery_totals(results),
                "seconds": time.perf_counter() - started,
            }
    probes, ratios = _time_probe_pairs(skewed_base, probe_pass)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    sketched = _DISCOVERY["sketches"]
    raw = _DISCOVERY["raw"]

    # Bit-for-bit identical discovery output across estimators.
    assert sketched["totals"]["queries"] == raw["totals"]["queries"]
    assert probes["sketches"]["outcomes"] == probes["raw"]["outcomes"]

    probe_ratio = statistics.median(ratios)

    discovery_rows = [
        {
            "mode": mode,
            "seconds": round(_DISCOVERY[mode]["seconds"], 4),
            "joins_performed": _DISCOVERY[mode]["totals"]["joins_performed"],
            "sketch_estimates_used": _DISCOVERY[mode]["totals"][
                "sketch_estimates_used"
            ],
            "num_queries": _DISCOVERY[mode]["totals"]["num_queries"],
        }
        for mode in _MODES
    ]
    probe_rows = [
        {
            "mode": mode,
            "pass_ms": round(probes[mode]["seconds"] * 1e3, 3),
            "joins_performed": probes[mode]["joins_performed"],
        }
        for mode in _MODES
    ]
    discovery_table = format_table(
        discovery_rows,
        columns=["mode", "seconds", "joins_performed",
                 "sketch_estimates_used", "num_queries"],
        title="Sketch statistics: discovery on a Zipf-skewed chain "
              f"(4x{_ROWS}-row tables, skew={_SKEW}, "
              f"dangling={_DANGLING}, numpy backend)",
    )
    probe_table = format_table(
        probe_rows,
        columns=["mode", "pass_ms", "joins_performed"],
        title="Probe pass: semijoin-swept exists "
              f"({len(probe_pass)} probes over T3-T2-T1 in one round, "
              f"median of {_TIMED_PAIRS} alternating passes)",
    )
    summary_table = format_table(
        [{
            "probe_pass_raw_over_sketches": f"{probe_ratio:.2f}x",
            "pair_ratios": " ".join(f"{ratio:.2f}" for ratio in ratios),
            "identical_results": True,
        }],
        columns=["probe_pass_raw_over_sketches", "pair_ratios",
                 "identical_results"],
        title="Sketch summary (asserted: identical queries and probe "
              "outcomes, sketch estimates used only with sketches on)",
    )
    write_report(
        "sketch_stats",
        discovery_table + "\n\n" + probe_table + "\n\n" + summary_table,
    )

    # The sketch path must actually have run, and only with sketches on.
    assert sketched["totals"]["sketch_estimates_used"] > 0
    assert raw["totals"]["sketch_estimates_used"] == 0


# ----------------------------------------------------------------------
# CI smoke: 4k-row tables, sub-second discovery, no wall-clock
# assertion (timing-free).
# ----------------------------------------------------------------------
_SMOKE_ROWS = 4_000


def test_sketch_stats_smoke(benchmark):
    """Sketch on/off parity on a small skewed chain."""
    database = generate_synthetic_database(
        num_tables=3,
        rows_per_table=_SMOKE_ROWS,
        topology="chain",
        seed=_SEED,
        skew=_SKEW,
        dangling_fk_fraction=_DANGLING,
    )
    t2 = database.table("T2")
    by_label = defaultdict(list)
    for label, parent in zip(
        t2.column_values("label"), t2.column_values("parent_id")
    ):
        by_label[label].append(parent)
    dead = sorted(
        label
        for label, parents in by_label.items()
        if all(parent >= _SMOKE_ROWS for parent in parents)
    )
    spec = MappingSpec(num_columns=2)
    for label in dead[:6]:
        spec.add_sample_cells([parse_value_constraint(label), None])
    base = Prism(database, limits=_LIMITS)

    def run():
        outcomes = {}
        for sketches in (True, False):
            results = _run_discovery(base, [spec], sketches)
            outcomes[sketches] = _discovery_totals(results)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    sketched, raw = outcomes[True], outcomes[False]
    assert sketched["queries"] == raw["queries"]
    assert sketched["sketch_estimates_used"] > 0
    assert raw["sketch_estimates_used"] == 0
