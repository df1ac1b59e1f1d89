"""Column masks of value constraints against the per-cell definition.

The executor's pushdown scan is ``select_rows(table, column, c)``, which
answers with ``c.mask(kernel)``: one bool per row.  That mask must equal

    ``[v is not None and c.matches(v) for v in column]``

for every constraint class on every column kind the store keeps — bool,
int, float (NaN, ±inf, −0.0), text, DATE and ints beyond int64 (an
object column) — in each physical layout of the ``in_layout`` fixture.
The constraints are drawn from seeded pools that mix target types:
string targets on numeric columns, numeric targets on text, bools
against ints, and bounds next to ±2^53 and the int64 limits, where a
float64 comparison would round.
"""

from __future__ import annotations

import datetime
import math
import random

import numpy as np
import pytest

from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
    ValueConstraint,
)
from repro.dataset.schema import Column
from repro.dataset.table import Table
from repro.dataset.types import DataType
from repro.storage import ColumnStore

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)
_EXACT = 2**53

_BOOLS = [True, False]
_INTS = [
    0, 1, -1, 2, 3, 5, 7, 40, -40, 1_000,
    _EXACT - 1, _EXACT, _EXACT + 1, -_EXACT, -_EXACT - 1,
    _INT64_MAX, _INT64_MAX - 1, _INT64_MIN, _INT64_MIN + 1,
]
_FLOATS = [
    0.0, -0.0, 0.5, -0.5, 2.5, -2.5, 3.0, 1e-300, 1e300, -1e300,
    float(_EXACT), float(_EXACT) * 2, float(_INT64_MAX), -float(2**63),
    math.inf, -math.inf, math.nan,
]
_TEXTS = [
    "Lake Tahoe", "lake tahoe", "Tahoe", "Greater Lake Tahoe Area", "tah",
    "5", "2.5", "-0.0", "0.0", "nan", "inf", "true", "True", "false",
    "E", "Elko", "elko", "Reno", "a-b", "", " padded ", "2019-01-01",
]
_DATES = [datetime.date(2019, 1, 1), datetime.date(2020, 6, 15),
          datetime.date(1999, 12, 31)]
_BIG_INTS = [2**70, -(2**70), 2**63, _INT64_MAX, 0, 12, -5]
#: Ints beyond float range: ``float()`` of them overflows.
_HUGE = [10**400, -(10**400)]

#: Every target a constraint may carry, whatever the column.
_TARGETS = (
    _BOOLS + _INTS + [2**63, 2**64, -(2**64), 10**30, 2**70]
    + _FLOATS + _TEXTS + _DATES + _HUGE
)

_COLUMNS = {
    "b": (DataType.BOOLEAN, _BOOLS),
    "i": (DataType.INT, _INTS),
    "f": (DataType.DECIMAL, _FLOATS + [1.0, 1.5, 7.0, -3.0]),
    "t": (DataType.TEXT, _TEXTS),
    "d": (DataType.DATE, _DATES),
    "o": (DataType.INT, _BIG_INTS),
}


def _table(in_layout, rng: random.Random) -> tuple[ColumnStore, Table]:
    """A seeded table with one column of each kind, in the fixture's
    layout."""
    backend = ColumnStore()
    table = Table(
        "M",
        [Column(name, data_type) for name, (data_type, __) in _COLUMNS.items()],
        backend=backend,
    )
    rows = []
    for row_index in range(80):
        row = []
        for name, (__, pool) in _COLUMNS.items():
            if row_index % 7 == 3 or rng.random() < 0.1:
                row.append(None)
            else:
                row.append(rng.choice(pool))
        rows.append(tuple(row))
    # The object column needs one int beyond int64 to be promoted.
    rows.append((True, 1, 1.0, "Reno", _DATES[0], 2**70))
    table.insert_many(rows)
    return in_layout(backend, "M", table)


def _range(rng: random.Random) -> ValueConstraint:
    pools = [_INTS + _FLOATS + [2**64, -(2**64)] + _HUGE, _TEXTS, _DATES]
    pool = rng.choice(pools)
    low, high = rng.choice(pool), rng.choice(pool)
    if isinstance(low, str) or isinstance(high, str):
        pass  # the constructor leaves text bounds unordered
    elif not (low <= high) and not (low != low or high != high):
        low, high = high, low
    shape = rng.randrange(4)
    if shape == 1:
        low = None
    elif shape == 2:
        high = None
    elif shape == 3 and rng.random() < 0.5:
        # A number against a text bound: ordering is a type mismatch.
        high = rng.choice(_TEXTS)
    if low is None and high is None:
        high = rng.choice(pool)
    return Range(
        low, high,
        low_inclusive=rng.random() < 0.5,
        high_inclusive=rng.random() < 0.5,
    )


def _leaf(rng: random.Random) -> ValueConstraint:
    kind = rng.randrange(5)
    if kind == 0:
        return ExactValue(rng.choice(_TARGETS))
    if kind == 1:
        return OneOf(rng.sample(_TARGETS, k=rng.randint(1, 4)))
    if kind == 2:
        return _range(rng)
    if kind == 3:
        op = rng.choice(["==", "!=", ">", ">=", "<", "<="])
        return Predicate(op, rng.choice(_TARGETS))
    return AnyValue()


def _constraint(rng: random.Random) -> ValueConstraint:
    if rng.random() < 0.2:
        parts = [_leaf(rng) for __ in range(rng.randint(2, 3))]
        return (Conjunction if rng.random() < 0.5 else Disjunction)(parts)
    return _leaf(rng)


#: Hand-picked cases the seeded draws might miss.
_PINNED = [
    # Bools match by identity, never by their int value.
    ExactValue(True), ExactValue(False), ExactValue(1), ExactValue(0),
    OneOf([1, 0]), Predicate("==", 1.0), Predicate("!=", True),
    Predicate(">", True), Range(False, True), Range(0, 1),
    # Int cells against float bounds next to 2^53: compared exactly.
    Predicate(">", float(_EXACT)), Predicate(">=", float(_EXACT)),
    Predicate("<", float(_EXACT)), Predicate("<=", float(_EXACT)),
    Range(float(_EXACT), None, low_inclusive=False),
    Range(-float(_EXACT), None, low_inclusive=False),
    Range(None, 2.5), Range(-2.5, 2.5, low_inclusive=False),
    # Float cells against int bounds beyond 2^53.
    Predicate(">", _EXACT + 1), Predicate("<", -_EXACT - 1),
    Predicate(">=", _EXACT + 1), Predicate("<=", _EXACT),
    # Bounds at and beyond the int64 limits.
    Predicate(">", _INT64_MAX), Predicate(">=", _INT64_MAX),
    Predicate("<", _INT64_MIN + 1), Predicate(">", 2**63),
    Predicate("<", -(2**64)), Range(_INT64_MIN, _INT64_MAX),
    Predicate(">", 9.3e18), Predicate("<", -9.3e18),
    # Equality compares as floats: 2^53 + 1 == 2^53.
    ExactValue(_EXACT), ExactValue(float(_EXACT)), ExactValue(_EXACT + 1),
    ExactValue(_INT64_MAX), ExactValue(2**64),
    # NaN: != and AnyValue keep it, equality and ranges drop it.
    ExactValue(math.nan), Predicate("!=", math.nan), Predicate("!=", 0.5),
    Range(-math.inf, math.inf), Range(math.nan, None), Predicate("<", math.inf),
    Predicate(">", math.nan), Predicate(">", -math.inf), AnyValue(),
    # Signed zeros compare equal but read differently as text.
    ExactValue(-0.0), ExactValue("-0.0"), ExactValue("0.0"),
    # Text targets on numeric columns, numeric targets on text.
    ExactValue("5"), ExactValue("2.5"), ExactValue("true"), ExactValue("nan"),
    ExactValue(5), ExactValue(2.5), Predicate(">", "E"), Predicate("<", 3),
    Predicate("!=", "no such text"), OneOf(["Tahoe", 5, True]),
    Range("E", "F"), Range("e", None), Range(None, "Reno", high_inclusive=False),
    # Ints beyond float range equal no cell but themselves, and bound
    # every finite one.
    ExactValue(10**400), Predicate("!=", 10**400), Predicate("==", -(10**400)),
    OneOf([10**400, 12]), Predicate(">", 10**400), Predicate("<", -(10**400)),
    Predicate(">", -(10**400)), Range(0, 10**400), Range(-(10**400), 5),
    # Dates.
    ExactValue(_DATES[0]), Range(_DATES[2], _DATES[0]),
    Predicate(">", _DATES[0]), Predicate("!=", _DATES[1]),
    # Keyword semantics through combinations.
    Conjunction([ExactValue("Tahoe"), Predicate("!=", "tahoe")]),
    Disjunction([ExactValue("Reno"), Range(0, 5), ExactValue(True)]),
    Conjunction([Predicate(">=", "E"), Predicate("<", "F")]),
]


def _expected(table: Table, name: str, constraint: ValueConstraint) -> list[bool]:
    return [
        value is not None and constraint.matches(value)
        for value in table.column_values(name)
    ]


def _assert_masks(table: Table, constraints) -> int:
    checked = 0
    for constraint in constraints:
        for name in _COLUMNS:
            mask = table.select_rows(name, constraint)
            assert mask.dtype == np.bool_ and mask.shape == (table.num_rows,)
            assert mask.tolist() == _expected(table, name, constraint), (
                name, constraint
            )
            checked += 1
    return checked


def test_column_kinds_cover_every_kernel(in_layout):
    backend, __ = _table(in_layout, random.Random(0))
    kinds = {
        name: backend.column_kernel("M", position).kind
        for position, name in enumerate(_COLUMNS)
    }
    assert kinds == {
        "b": "array", "i": "array", "f": "array",
        "t": "text", "d": "object", "o": "object",
    }


def test_pinned_constraints_mask_like_matches(in_layout):
    __, table = _table(in_layout, random.Random(1))
    assert _assert_masks(table, _PINNED) == len(_PINNED) * len(_COLUMNS)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_constraints_mask_like_matches(in_layout, seed):
    rng = random.Random(seed)
    __, table = _table(in_layout, rng)
    constraints = [_constraint(rng) for __ in range(150)]
    assert _assert_masks(table, constraints) == 150 * len(_COLUMNS)


def test_null_rows_never_read_the_text_lookup(in_layout):
    """Every dictionary entry passes ``!= 'no such text'``, the last one
    included, so a NULL code indexing the lookup would select NULLs."""
    __, table = _table(in_layout, random.Random(2))
    mask = table.select_rows("t", Predicate("!=", "no such text"))
    values = table.column_values("t")
    assert None in values
    assert mask.tolist() == [value is not None for value in values]


def test_masks_follow_appends(in_layout):
    """A scan after an append sees the new rows and dictionary entries."""
    backend, table = _table(in_layout, random.Random(3))
    before = table.select_rows("t", ExactValue("brand new words")).tolist()
    table.insert((True, _EXACT + 1, -0.0, "brand new words", None, None))
    after = table.select_rows("t", ExactValue("brand new words")).tolist()
    assert after == before + [True]
    assert table.select_rows("i", Predicate(">", float(_EXACT))).tolist()[-1]
    assert table.select_rows("f", ExactValue("-0.0")).tolist()[-1]
