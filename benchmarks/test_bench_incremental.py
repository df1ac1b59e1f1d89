"""Incremental artifact refresh vs full rebuild across delta sizes.

Builds a Mondial-scale database, warms an :class:`ArtifactStore`, then
measures how long it takes to bring the preprocessing artifacts up to
date after appending batches of rows two ways:

* **full rebuild** — ``ArtifactStore.build()``: index + catalog + schema
  graph + Bayesian training from scratch (what every mutation used to
  cost);
* **incremental refresh** — ``ArtifactStore.refresh()``: fold the append
  delta into the cached bundle in place (``docs/incremental.md``).

The report (``REPORT_DIR/incremental_refresh.txt``) records both
latencies per delta size, and the final test asserts the PR's
acceptance target: refresh is **≥5× faster than a rebuild for deltas of
≤1% appended rows**.  Golden equivalence of the two paths is proven
separately in ``tests/service/test_artifact_refresh.py``.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks.conftest import write_report
from repro.datasets import load_mondial
from repro.api import ArtifactStore

DELTA_FRACTIONS = [0.01, 0.05]
ROUNDS = 5
TARGET_SPEEDUP = 5.0

_RESULTS: dict[str, float] = {}
_ROW_COUNTER = itertools.count()


@pytest.fixture(scope="module")
def scaled_mondial():
    """A scaled-up synthetic Mondial (a few thousand rows)."""
    return load_mondial(
        extra_provinces_per_country=6,
        extra_cities_per_province=5,
        extra_lakes=300,
        extra_rivers=250,
        extra_mountains=200,
    )


@pytest.fixture(scope="module")
def warm_store(scaled_mondial):
    """A store whose bundle for the scaled database is already built."""
    store = ArtifactStore()
    store.get(scaled_mondial)
    return store


def _append_rows(database, count: int) -> None:
    """Append ``count`` valid City rows (the delta under measurement)."""
    city = database.table("City")
    for _ in range(count):
        serial = next(_ROW_COUNTER)
        city.insert((
            f"Benchtown {serial}",
            "United States",
            "Michigan",
            10_000 + serial,
            -84.0 - serial * 0.001,
            42.0 + serial * 0.001,
        ))


def test_bench_full_rebuild(benchmark, scaled_mondial):
    base_rows = scaled_mondial.total_rows

    def rebuild():
        return ArtifactStore().build(scaled_mondial)

    benchmark.pedantic(rebuild, rounds=ROUNDS, iterations=1)
    _RESULTS["rebuild_s"] = benchmark.stats.stats.min
    _RESULTS["base_rows"] = base_rows
    benchmark.extra_info["rows"] = base_rows


@pytest.mark.parametrize("fraction", DELTA_FRACTIONS)
def test_bench_incremental_refresh(benchmark, scaled_mondial, warm_store,
                                   fraction):
    delta_rows = max(1, int(scaled_mondial.total_rows * fraction))

    def grow():
        _append_rows(scaled_mondial, delta_rows)
        return (), {}

    def refresh():
        return warm_store.refresh(scaled_mondial)

    refreshes_before = warm_store.stats.refreshes
    benchmark.pedantic(refresh, setup=grow, rounds=ROUNDS, iterations=1)
    # Every round must have taken the delta path, not a silent rebuild.
    assert warm_store.stats.refreshes == refreshes_before + ROUNDS
    assert warm_store.stats.rebuild_fallbacks == 0
    _RESULTS[f"refresh_{fraction}_s"] = benchmark.stats.stats.min
    _RESULTS[f"refresh_{fraction}_rows"] = delta_rows
    benchmark.extra_info["delta_rows"] = delta_rows


def test_bench_incremental_report(benchmark):
    if "rebuild_s" not in _RESULTS:
        pytest.skip("rebuild benchmark did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rebuild_s = _RESULTS["rebuild_s"]
    lines = [
        "Incremental artifact refresh vs full rebuild "
        "(min over %d rounds each)" % ROUNDS,
        f"database: scaled Mondial, {_RESULTS['base_rows']} rows",
        f"full rebuild: {rebuild_s * 1000:.2f} ms",
    ]
    speedups = {}
    for fraction in DELTA_FRACTIONS:
        key = f"refresh_{fraction}_s"
        if key not in _RESULTS:
            continue
        refresh_s = _RESULTS[key]
        speedups[fraction] = rebuild_s / refresh_s
        lines.append(
            f"refresh {fraction:.0%} delta "
            f"({_RESULTS[f'refresh_{fraction}_rows']} rows): "
            f"{refresh_s * 1000:.2f} ms — {speedups[fraction]:.1f}x faster"
        )
    report = write_report("incremental_refresh", "\n".join(lines))
    # Acceptance target: >=5x faster refresh for <=1% appended rows.
    assert 0.01 in speedups
    assert speedups[0.01] >= TARGET_SPEEDUP, (
        f"refresh of a 1% delta is only {speedups[0.01]:.1f}x faster than "
        f"a rebuild (target {TARGET_SPEEDUP}x); see {report}"
    )
