"""The coded edge kernel against the reference edge kernel.

:class:`repro.query.kernels.EdgeKernel` numbers both sides' keys once,
when the edge is built, and folds with a scatter and a gather over the
codes.  The reference (:mod:`tests.query.reference_kernels`) is the
kernel as it was when every fold collected the new side's surviving keys
and tested the existing side's keys against them.  Over random column
pairs of every kind pair, both must give the same ``mode``, the same
``keep_existing`` under no mask and under random masks, and the same
``matches`` at every limit.

The kinds reach what the benchmark workloads do not: integer spans too
wide for offset codes, int64 extremes, ints beyond int64 (object
columns), float NaN, ±0.0 and ±inf, booleans, dates, text entries on one
side only, all-NULL and empty columns; every kind pair covers the
cross-type edges (int ⋈ float, bool ⋈ int, text ⋈ int, ...).  A last
check builds a text edge over an existing snapshot whose live dictionary
grew after the snapshot was taken.
"""

from __future__ import annotations

import datetime
import itertools
import random

import numpy as np
import pytest

from repro.dataset import Column, Database, DataType
from repro.query.kernels import EdgeKernel
from tests.query.reference_kernels import EdgeKernel as ReferenceEdgeKernel

_NAN = float("nan")
_INF = float("inf")
_INT64_MAX = 2**63 - 1
#: name → (column type, the values its columns draw from).
_KINDS = {
    "int": (DataType.INT, list(range(-6, 10))),
    "int-wide": (DataType.INT, [k * 10**12 for k in range(-3, 5)] + [1]),
    "int-extreme": (
        DataType.INT, [-(2**63), -(2**63) + 1, _INT64_MAX, _INT64_MAX - 1, 0, 1]
    ),
    "int-top": (DataType.INT, [_INT64_MAX - k for k in range(8)]),
    "int-beyond": (DataType.INT, [2**64, -(2**70), 2**63, 0, 1, 2]),
    "float": (
        DataType.DECIMAL, [_NAN, 0.0, -0.0, _INF, -_INF, 1.0, 2.0, 2.5, 2.0**63]
    ),
    "bool": (DataType.BOOLEAN, [True, False]),
    "text": (DataType.TEXT, ["a", "b", "c", "1", "True", "2.5", "é"]),
    "date": (
        DataType.DATE,
        [datetime.date(2019, 1, 1), datetime.date(2020, 2, 29),
         datetime.date(2021, 12, 31), datetime.date(1970, 1, 1)],
    ),
}
#: Columns per kind pair; pairs of one column type, whose keys are coded
#: by offset, by sort or through the dictionary translate, get 5 times as
#: many.
_SEEDS_PER_PAIR = 6
_MASKS_PER_PAIR = 5
_LIMITS = (None, 1, 3)


def _table(data_type: DataType, values: list, name: str = "T"):
    database = Database(name)
    table = database.create_table(name, [Column("k", data_type)])
    table.insert_many([(value,) for value in values])
    return table


def _kernel(data_type: DataType, values: list):
    return _table(data_type, values).backend.column_kernel("T", 0)


def _column(rng: random.Random, kind: str) -> tuple[DataType, list]:
    """A random column of ``kind``: a random share of its values (so some
    occur on one side only), sometimes empty, sometimes all NULL."""
    data_type, pool = _KINDS[kind]
    pool = rng.sample(pool, rng.randint(1, len(pool)))
    size = rng.choice([0, 1, rng.randint(2, 12), rng.randint(12, 40)])
    null_share = rng.choice([0.0, 0.0, 0.25, 1.0])
    return data_type, [
        None if rng.random() < null_share else rng.choice(pool)
        for __ in range(size)
    ]


def _masks(rng: random.Random, size: int) -> list[np.ndarray]:
    masks = [np.zeros(size, dtype=np.bool_), np.ones(size, dtype=np.bool_)]
    while len(masks) < _MASKS_PER_PAIR:
        share = rng.random()
        masks.append(
            np.array([rng.random() < share for __ in range(size)], dtype=np.bool_)
        )
    return masks


def _assert_same(existing, new, rng: random.Random) -> int:
    """Compare both kernels over one edge; returns the masks checked."""
    coded = EdgeKernel(existing, new)
    reference = ReferenceEdgeKernel(existing, new)
    assert coded.mode == reference.mode
    expected = reference.keep_existing(None)
    assert np.array_equal(coded.keep_existing(None), expected)
    masks = _masks(rng, len(new.keys))
    for mask in [None] + masks:
        kept = reference.keep_existing(mask)
        assert coded.keep_existing(mask).dtype == np.bool_
        assert np.array_equal(coded.keep_existing(mask), kept)
        # Rows the upward pass kept, in any order and with repeats, as
        # join_rows hands them over after earlier steps.
        survivors = np.flatnonzero(kept)
        rows = (
            np.array(rng.choices(survivors.tolist(), k=rng.randint(1, 8)))
            if len(survivors) else survivors
        )
        for limit in _LIMITS:
            got = coded.matches(rows, mask, limit)
            want = reference.matches(rows, mask, limit)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    return len(masks)


@pytest.mark.parametrize(
    "existing_kind,new_kind", list(itertools.product(_KINDS, repeat=2))
)
def test_coded_kernel_matches_reference(existing_kind, new_kind):
    rng = random.Random(f"{existing_kind}-{new_kind}")
    seeds = _SEEDS_PER_PAIR
    if _KINDS[existing_kind][0] == _KINDS[new_kind][0]:
        seeds *= 5
    checked = 0
    for __ in range(seeds):
        existing = _kernel(*_column(rng, existing_kind))
        new = _kernel(*_column(rng, new_kind))
        checked += _assert_same(existing, new, rng)
    assert checked == seeds * _MASKS_PER_PAIR


@pytest.mark.parametrize("kind", ["int", "int-extreme", "float", "text"])
def test_every_row_shares_one_key(kind):
    """One value on both sides, NULLs around it: every pair matches."""
    data_type, pool = _KINDS[kind]
    value = pool[1]
    rng = random.Random(kind)
    existing = _kernel(data_type, [value, None, value, value])
    new = _kernel(data_type, [None, value, value])
    _assert_same(existing, new, rng)
    assert EdgeKernel(existing, new).keep_existing(None).tolist() == [
        True, False, True, True
    ]


def test_nan_keys_never_match():
    existing = _kernel(DataType.DECIMAL, [_NAN, 1.0, _NAN, -0.0])
    new = _kernel(DataType.DECIMAL, [_NAN, 0.0, _NAN])
    edge = EdgeKernel(existing, new)
    assert edge.keep_existing(None).tolist() == [False, False, False, True]
    assert edge.new_codes.tolist()[0] == edge.new_codes.tolist()[2] == -1
    _assert_same(existing, new, random.Random(0))


def test_text_edge_over_a_grown_dictionary():
    """The existing snapshot was taken before its column's dictionary
    grew, so the new side's translated codes reach past every code the
    snapshot holds."""
    table = _table(DataType.TEXT, ["a", None, "b", "a"], name="E")
    snapshot = table.backend.column_kernel("E", 0)
    table.insert_many([("y",), ("z",), ("a",)])
    grown = table.backend.column_kernel("E", 0)
    new = _kernel(DataType.TEXT, ["z", None, "a", "y", "q"])
    rng = random.Random(0)
    for existing in (snapshot, grown):
        _assert_same(existing, new, rng)
    assert EdgeKernel(snapshot, new).keep_existing(None).tolist() == [
        True, False, False, True
    ]
    _assert_same(new, snapshot, rng)
