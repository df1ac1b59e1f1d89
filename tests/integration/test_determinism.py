"""Discovery is deterministic across processes and hash seeds.

String hashing is randomized per process (``PYTHONHASHSEED``), so any
iteration over a ``set`` or ``frozenset`` of table or column names can
reorder work between processes.  Discovery must not depend on that
order: the same specification over the same database yields the same
SQL and the same non-timing statistics in every process.  The first
test runs the quickstart's Mondial discovery (Lake Tahoe, California or
Nevada, a non-negative decimal area) in fresh interpreters under several
hash seeds and compares what they report; the second compares the rows
one existence probe scans before its pushdown meets an empty selection;
the third runs an IMDB spec whose validation counts under the ``filter``
and ``optimal`` policies once followed the filter ids, which followed
the iteration order of frozensets of table names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
_HASH_SEEDS = ("0", "1", "12345")
_TIMING_FIELDS = {
    "elapsed_seconds",
    "related_column_seconds",
    "candidate_seconds",
    "validation_seconds",
}

_DISCOVER = f"""
import dataclasses
import json

from repro import MappingSpec, Prism, load_mondial
from repro.constraints import parse_metadata_constraint, parse_value_constraint

spec = MappingSpec(num_columns=3)
spec.add_sample_cells([
    parse_value_constraint("California || Nevada"),
    parse_value_constraint("Lake Tahoe"),
    None,
])
spec.set_metadata(
    2, parse_metadata_constraint("DataType=='decimal' AND MinValue>=0")
)
result = Prism(load_mondial()).discover(spec)
stats = dataclasses.asdict(result.stats)
for field in {sorted(_TIMING_FIELDS)!r}:
    del stats[field]
print(json.dumps({{"sql": result.sql(), "stats": stats}}))
"""


def _discover_under(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(_SRC))
    return subprocess.Popen(
        [sys.executable, "-c", _DISCOVER],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_discovery_is_identical_under_every_hash_seed():
    processes = {seed: _discover_under(seed) for seed in _HASH_SEEDS}
    reports = {}
    try:
        for seed, process in processes.items():
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            reports[seed] = json.loads(out)
    finally:
        for process in processes.values():
            process.kill()
            process.wait()

    first = reports[_HASH_SEEDS[0]]
    assert first["sql"] and not first["stats"]["timed_out"]
    for seed in _HASH_SEEDS[1:]:
        assert reports[seed]["sql"] == first["sql"], seed
        assert reports[seed]["stats"] == first["stats"], seed


_PROBE = """
from repro import ColumnRef, Executor, ProjectJoinQuery, generate_synthetic_database
from repro.constraints.values import ExactValue

database = generate_synthetic_database(4, 50, topology="chain", seed=0)
query = ProjectJoinQuery(
    (ColumnRef("T0", "label"), ColumnRef("T3", "label")),
    tuple(database.foreign_keys),
)
executor = Executor(database)
assert not executor.exists(query, cell_predicates={1: ExactValue("no such label")})
print(executor.stats.rows_scanned)
"""


def test_rows_scanned_is_identical_under_every_hash_seed():
    """A probe whose pushdown meets an empty selection stops scanning
    there; which tables it scanned first must not depend on hashing."""
    scanned = {}
    for seed in _HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(_SRC))
        done = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        scanned[seed] = int(done.stdout)
    assert len(set(scanned.values())) == 1, scanned


_TIE_BREAKS = f"""
import dataclasses
import json

from repro import GenerationLimits, MappingSpec, Prism, load_imdb
from repro.constraints.values import ExactValue
from repro.discovery.filters import build_filters

database = load_imdb()
limits = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)
spec = MappingSpec(num_columns=3)
spec.add_sample_cells([ExactValue(3), ExactValue(3), ExactValue(43)])
report = {{}}
for policy in ("filter", "optimal"):
    prism = Prism(database, scheduler=policy, limits=limits, train_bayesian=False)
    result = prism.discover(spec)
    stats = dataclasses.asdict(result.stats)
    for field in {sorted(_TIMING_FIELDS)!r}:
        del stats[field]
    report[policy] = {{"sql": result.sql(), "stats": stats}}
report["filters"] = [
    [
        filter_.sample_index,
        list(filter_.positions),
        [str(ref) for ref in filter_.query.projections],
        sorted(str(edge) for edge in filter_.query.joins),
        sorted(filter_.tables),
    ]
    for filter_ in build_filters(spec, prism.candidate_queries(spec)).filters
]
print(json.dumps(report))
"""


def test_filter_ids_and_tie_breaks_are_identical_under_every_hash_seed():
    """The ``filter`` and ``optimal`` policies break ties by filter id:
    each filter's id, and so each count, must not depend on hashing."""
    reports = {}
    for seed in _HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(_SRC))
        done = subprocess.run(
            [sys.executable, "-c", _TIE_BREAKS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        reports[seed] = json.loads(done.stdout)

    first = reports[_HASH_SEEDS[0]]
    assert first["filters"] and first["filter"]["stats"]["validations"]
    for seed in _HASH_SEEDS[1:]:
        assert reports[seed] == first, seed
