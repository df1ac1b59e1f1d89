"""Unit tests for the inverted index."""

from __future__ import annotations

import random

import pytest

from repro.dataset import Column, Database, DataType
from repro.dataset.index import (
    InvertedIndex,
    _distinct_values,
    _tokenize,
    normalize_term,
)
from repro.dataset.schema import ColumnRef


@pytest.fixture()
def index(company_db):
    return InvertedIndex.build(company_db)


class TestNormalizeTerm:
    def test_case_folding_and_stripping(self):
        assert normalize_term("  Lake Tahoe ") == "lake tahoe"

    def test_integral_float_matches_int(self):
        assert normalize_term(497.0) == normalize_term(497)

    def test_non_integral_float_keeps_fraction(self):
        assert normalize_term(53.2) == "53.2"


class TestBuild:
    def test_counts(self, index, company_db):
        non_null_cells = sum(
            1
            for table in company_db
            for row in table.rows
            for cell in row
            if cell is not None
        )
        assert index.indexed_cells == non_null_cells
        assert index.num_terms > 0


class TestLookup:
    def test_exact_value_lookup(self, index):
        columns = index.columns_containing("Engineering", include_tokens=False)
        # Department.Name holds it, and so do Employee.Department values.
        assert columns == {
            ColumnRef("Department", "Name"),
            ColumnRef("Employee", "Department"),
        }

    def test_lookup_is_case_insensitive(self, index):
        assert index.columns_containing("engineering") == index.columns_containing(
            "ENGINEERING"
        )

    def test_token_lookup_finds_word_inside_text(self, index):
        columns = index.columns_containing("Alice")
        assert ColumnRef("Employee", "Name") in columns

    def test_token_lookup_can_be_disabled(self, index):
        assert ColumnRef("Employee", "Name") not in index.columns_containing(
            "Alice", include_tokens=False
        )

    def test_numeric_lookup(self, index):
        columns = index.columns_containing(120000.0)
        assert ColumnRef("Employee", "Salary") in columns

    def test_missing_value_returns_empty(self, index):
        assert index.columns_containing("no such value") == set()

    def test_columns_containing_any(self, index):
        columns = index.columns_containing_any(["Engineering", "P3"])
        assert ColumnRef("Project", "Code") in columns
        assert ColumnRef("Department", "Name") in columns

    def test_lookup_result_is_a_fresh_set(self, index):
        columns = index.columns_containing("Engineering")
        columns.clear()
        assert index.columns_containing("Engineering")


# ----------------------------------------------------------------------
# Differential: the index against a per-cell scan
# ----------------------------------------------------------------------
_WORDS = ["Lake", "tahoe", "CRATER", "river", "Mont", "blanc", "42", "x1"]

_TYPES = (DataType.TEXT, DataType.INT, DataType.DECIMAL, DataType.BOOLEAN)


def _cell(rng: random.Random, data_type: DataType):
    if rng.random() < 0.15:
        return None
    if data_type is DataType.TEXT:
        words = rng.sample(_WORDS, rng.randint(1, 3))
        separator = rng.choice([" ", ", ", "-", "  "])
        return separator.join(words) + rng.choice(["", " ", "!"])
    if data_type is DataType.INT:
        return rng.choice([0, 1, -1, 2, 7, 42, rng.randint(-50, 50)])
    if data_type is DataType.DECIMAL:
        return rng.choice(
            [0.0, -0.0, 1.0, 2.5, -3.25, 42.0, 7.0, 1e20, float(rng.randint(-9, 9))]
        )
    return rng.choice([True, False])


def _random_database(rng: random.Random) -> Database:
    database = Database(f"random{rng.random()}")
    for table_index in range(rng.randint(1, 3)):
        types = [rng.choice(_TYPES) for __ in range(rng.randint(1, 4))]
        table = database.create_table(
            f"T{table_index}",
            [Column(f"c{i}", data_type) for i, data_type in enumerate(types)],
        )
        _append(rng, table, rng.randint(0, 30))
    return database


def _append(rng: random.Random, table, count: int) -> None:
    table.insert_many(
        tuple(_cell(rng, column.data_type) for column in table.columns)
        for __ in range(count)
    )


def _scan(database: Database) -> tuple[dict, dict]:
    """Term → column sets, built one cell at a time."""
    exact: dict[str, set] = {}
    tokens: dict[str, set] = {}
    for table in database:
        for column in table.columns:
            ref = ColumnRef(table.name, column.name)
            for value in table.column_values(column.name):
                if value is None:
                    continue
                key = normalize_term(value)
                exact.setdefault(key, set()).add(ref)
                if column.data_type is DataType.TEXT:
                    for token in _tokenize(value):
                        if token != key:
                            tokens.setdefault(token, set()).add(ref)
    return exact, tokens


def _assert_matches_scan(index: InvertedIndex, database: Database) -> None:
    exact, tokens = _scan(database)
    assert {key: set(refs) for key, refs in index._exact.items()} == exact
    assert {key: set(refs) for key, refs in index._tokens.items()} == tokens
    probes = [
        value
        for table in database
        for column in table.columns
        for value in table.column_values(column.name)
        if value is not None
    ]
    probes += [token for value in probes if isinstance(value, str)
               for token in _tokenize(value)]
    for value in probes:
        key = normalize_term(value)
        assert index.columns_containing(value, include_tokens=False) == \
            exact.get(key, set())
        assert index.columns_containing(value) == \
            exact.get(key, set()) | tokens.get(key, set())
    assert index.indexed_cells == sum(
        value is not None
        for table in database
        for column in table.columns
        for value in table.column_values(column.name)
    )


@pytest.mark.parametrize("seed", range(25))
def test_index_equals_a_per_cell_scan(seed):
    rng = random.Random(seed)
    database = _random_database(rng)
    _assert_matches_scan(InvertedIndex.build(database), database)


@pytest.mark.parametrize("seed", range(25))
def test_apply_delta_equals_a_cold_build(seed):
    rng = random.Random(1000 + seed)
    database = _random_database(rng)
    index = InvertedIndex.build(database)
    for __ in range(3):
        marks = database.storage_marks()
        for table in database:
            _append(rng, table, rng.randint(0, 10))
        index.apply_delta(database, database.storage_deltas_since(marks))
        cold = InvertedIndex.build(database)
        assert index._exact == cold._exact
        assert index._tokens == cold._tokens
        assert index.indexed_cells == cold.indexed_cells
        assert index.num_terms == cold.num_terms
        _assert_matches_scan(index, database)


def test_equal_values_of_different_types_keep_their_terms():
    """``True == 1 == 1.0`` (and ``0.0 == -0.0``), but their terms are
    "true", "1" and "1" (and "0"): no value class may swallow another."""
    assert sorted(
        map(normalize_term, _distinct_values([True, 1, 1.0, None, False, 0, -0.0]))
    ) == ["0", "0", "1", "1", "false", "true"]
    database = Database("mixed")
    table = database.create_table("T", [
        Column("flag", DataType.BOOLEAN),
        Column("count", DataType.INT),
        Column("amount", DataType.DECIMAL),
    ])
    table.insert_many([(True, 1, 1.0), (False, 0, -0.0), (None, None, None)])
    index = InvertedIndex.build(database)
    _assert_matches_scan(index, database)
    flag, count, amount = (ColumnRef("T", name)
                           for name in ("flag", "count", "amount"))
    assert index.columns_containing(True) == {flag}
    assert index.columns_containing(1) == index.columns_containing(1.0) == {
        count, amount
    }
    assert index.columns_containing(0.0) == {count, amount}


def test_huge_integer_column_is_indexed():
    database = Database("huge")
    table = database.create_table("T", [Column("n", DataType.INT)])
    table.insert_many([(1,), (10**400,), (-(10**400),), (None,), (1,)])
    index = InvertedIndex.build(database)
    _assert_matches_scan(index, database)
    assert index.columns_containing(10**400) == {ColumnRef("T", "n")}
