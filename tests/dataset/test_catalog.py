"""Unit tests for the metadata catalog."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest

from repro.constraints.parser import parse_metadata_constraint
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.schema import Column, ColumnRef
from repro.dataset.types import DataType
from repro.errors import SchemaError


@pytest.fixture()
def catalog(company_db):
    return MetadataCatalog.build(company_db)


class TestNumericStats:
    def test_min_max_mean(self, catalog):
        stats = catalog.stats(ColumnRef("Employee", "Salary"))
        assert stats.min_value == 67_000.0
        assert stats.max_value == 120_000.0
        assert stats.mean == pytest.approx(96_166.667, rel=1e-4)
        assert stats.stddev is not None and stats.stddev > 0

    def test_row_and_distinct_counts(self, catalog):
        stats = catalog.stats(ColumnRef("Employee", "Age"))
        assert stats.row_count == 6
        assert stats.null_count == 0
        assert stats.distinct_count == 6
        assert stats.is_numeric

    def test_int_column_type_recorded(self, catalog):
        assert catalog.stats(ColumnRef("Assignment", "Hours")).data_type is DataType.INT


class TestTextStats:
    def test_max_text_length(self, catalog):
        stats = catalog.stats(ColumnRef("Project", "Title"))
        assert stats.max_text_length == len("Query Optimizer")
        assert stats.mean is None

    def test_min_max_are_lexicographic(self, catalog):
        stats = catalog.stats(ColumnRef("Department", "Name"))
        assert stats.min_value == "Engineering"
        assert stats.max_value == "Sales"


class TestNullHandling:
    def test_null_fraction(self):
        database = Database("nulls")
        table = database.create_table(
            "T", [Column("x", DataType.INT), Column("y", DataType.TEXT)]
        )
        table.insert_many([(1, "a"), (None, None), (3, None), (None, "b")])
        catalog = MetadataCatalog.build(database)
        assert catalog.stats(ColumnRef("T", "x")).null_count == 2
        assert catalog.stats(ColumnRef("T", "x")).null_fraction == pytest.approx(0.5)
        assert catalog.stats(ColumnRef("T", "y")).non_null_count == 2

    def test_all_null_column_has_no_bounds(self):
        database = Database("allnull")
        table = database.create_table("T", [Column("x", DataType.DECIMAL)])
        table.insert_many([(None,), (None,)])
        catalog = MetadataCatalog.build(database)
        stats = catalog.stats(ColumnRef("T", "x"))
        assert stats.min_value is None
        assert stats.max_value is None
        assert stats.distinct_count == 0

    def test_empty_table_null_fraction_is_zero(self):
        database = Database("empty")
        database.create_table("T", [Column("x", DataType.INT)])
        catalog = MetadataCatalog.build(database)
        assert catalog.stats(ColumnRef("T", "x")).null_fraction == 0.0


NAN = math.nan

#: DECIMAL columns holding NaN, with the statistics every row order must
#: give: NaN stays out of min/max and counts as one distinct value.
NAN_COLUMNS = [
    ((NAN, NAN, NAN, 1.0), (2, 1.0, 1.0)),
    ((1.0, NAN, 0.5), (3, 0.5, 1.0)),
    ((NAN, None, -2.0, 3.5, NAN), (3, -2.0, 3.5)),
    ((NAN, NAN), (1, None, None)),
]


def _decimal_table(values) -> Database:
    database = Database("nans")
    table = database.create_table("T", [Column("x", DataType.DECIMAL)])
    table.insert_many((value,) for value in values)
    return database


def _without_moments(stats):
    """The statistics, with the running moments set aside: a NaN cell
    makes both NaN, and NaN never equals NaN."""
    assert math.isnan(stats.mean) and math.isnan(stats.stddev)
    return replace(stats, mean=None, stddev=None)


class TestNaNHandling:
    @pytest.mark.parametrize("values, expected", NAN_COLUMNS)
    def test_every_row_order_gives_equal_stats(self, values, expected):
        ref = ColumnRef("T", "x")
        at_least_zero = parse_metadata_constraint("MinValue>=0")
        seen = set()
        for order in itertools.permutations(values):
            catalog = MetadataCatalog.build(_decimal_table(order))
            stats = catalog.stats(ref)
            seen.add(_without_moments(stats))
            assert (
                stats.distinct_count, stats.min_value, stats.max_value
            ) == expected
            non_null = [value for value in values if value is not None]
            assert stats.distinct_count == len(
                {value for value in non_null if value == value}
            ) + any(value != value for value in non_null)
            assert at_least_zero.matches(stats) == (
                expected[1] is not None and expected[1] >= 0
            )
        assert len(seen) == 1

    @pytest.mark.parametrize("values, expected", NAN_COLUMNS)
    def test_a_folded_catalog_equals_a_cold_build(self, values, expected):
        ref = ColumnRef("T", "x")
        for order in itertools.permutations(values):
            for split in range(1, len(order)):
                database = _decimal_table(order[:split])
                catalog = MetadataCatalog.build(database)
                marks = database.storage_marks()
                database.table("T").insert_many(
                    (value,) for value in order[split:]
                )
                catalog.apply_delta(
                    database, database.storage_deltas_since(marks)
                )
                cold = MetadataCatalog.build(database)
                assert _without_moments(catalog.stats(ref)) == (
                    _without_moments(cold.stats(ref))
                ), (order, split)


class TestLookups:
    def test_columns_and_len(self, catalog, company_db):
        assert len(catalog) == len(company_db.all_column_refs())
        assert set(catalog.columns()) == set(company_db.all_column_refs())

    def test_columns_of_type(self, catalog):
        decimal_columns = catalog.columns_of_type(DataType.DECIMAL)
        assert ColumnRef("Department", "Budget") in decimal_columns
        assert ColumnRef("Employee", "Name") not in decimal_columns

    def test_table_row_count(self, catalog):
        assert catalog.table_row_count("Employee") == 6
        with pytest.raises(SchemaError):
            catalog.table_row_count("Ghost")

    def test_unknown_column_raises(self, catalog):
        with pytest.raises(SchemaError):
            catalog.stats(ColumnRef("Employee", "Ghost"))

    def test_has_column(self, catalog):
        assert catalog.has_column(ColumnRef("Employee", "Salary"))
        assert not catalog.has_column(ColumnRef("Employee", "Ghost"))
