"""Unit tests for the columnar storage backend, :class:`ColumnStore`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constraints.values import AnyValue, ExactValue, Predicate
from repro.dataset.schema import Column
from repro.dataset.table import Table
from repro.dataset.types import DataType
from repro.errors import SchemaError
from repro.storage import ColumnStore, make_backend


@pytest.fixture
def store_and_table(in_layout):
    backend = ColumnStore()
    table = Table(
        "Cities",
        [
            Column("Name", DataType.TEXT),
            Column("State", DataType.TEXT),
            Column("Population", DataType.INT),
        ],
        backend=backend,
    )
    table.insert_many(
        [
            ("Reno", "Nevada", 264_000),
            ("Fresno", "California", 542_000),
            ("Oakland", "California", 440_000),
            ("Elko", "Nevada", None),
            (None, "Nevada", 100),
        ]
    )
    return in_layout(backend, "Cities", table)


def _rows(mask) -> list[int]:
    """The row indexes a scan mask selects."""
    return np.flatnonzero(mask).tolist()


class TestDictionaryEncoding:
    def test_text_columns_are_dictionary_encoded(self, store_and_table):
        __, table = store_and_table
        codes, dictionary = table.text_column_codes("State")
        assert dictionary == ["Nevada", "California"]  # first-seen order
        assert codes == [0, 1, 1, 0, 0]

    def test_null_text_cells_carry_negative_code(self, store_and_table):
        __, table = store_and_table
        codes, __ = table.text_column_codes("Name")
        assert codes[4] < 0

    def test_non_text_columns_are_not_encoded(self, store_and_table):
        __, table = store_and_table
        assert table.text_column_codes("Population") is None
        assert table.text_dictionary("Population") is None

    def test_decoding_round_trips(self, store_and_table):
        __, table = store_and_table
        assert table.column_values("State") == [
            "Nevada", "California", "California", "Nevada", "Nevada",
        ]
        assert table.rows[3] == ("Elko", "Nevada", None)
        assert table.row(4) == (None, "Nevada", 100)


def _null_positions(table, column):
    return [i for i, value in enumerate(table.column_values(column))
            if value is None]


class TestNullMasks:
    def test_null_mask_and_count(self, store_and_table):
        __, table = store_and_table
        assert _null_positions(table, "Population") == [3]
        assert table.null_count("Population") == 1
        assert table.null_count("State") == 0

    def test_text_null_mask(self, store_and_table):
        __, table = store_and_table
        assert _null_positions(table, "Name") == [4]


class TestColumnStatsAccess:
    def test_distinct_count_uses_dictionary(self, store_and_table):
        __, table = store_and_table
        assert table.distinct_count("State") == 2
        assert table.distinct_values("State") == {"Nevada", "California"}

    def test_value_counts(self, store_and_table):
        __, table = store_and_table
        assert table.value_counts("State") == {"Nevada": 3, "California": 2}
        assert table.value_counts("Population") == {
            264_000: 1, 542_000: 1, 440_000: 1, 100: 1,
        }

    def test_select_rows_vectorizes_over_dictionary(self, store_and_table):
        __, table = store_and_table
        assert _rows(table.select_rows("State", ExactValue("Nevada"))) == [0, 3, 4]
        assert _rows(
            table.select_rows("Population", Predicate(">", 400_000))
        ) == [1, 2]

    def test_select_rows_never_matches_nulls(self, store_and_table):
        __, table = store_and_table
        assert _rows(table.select_rows("Population", AnyValue())) == [0, 1, 2, 4]


class TestWriteInvalidation:
    def test_insert_invalidates_kernel_and_rows_cache(self, store_and_table):
        backend, table = store_and_table
        table.rows  # publish the rows cache
        kernel = backend.column_kernel("Cities", 1)
        before = table.storage_version
        table.insert(("Sparks", "Nevada", 108_000))
        assert table.rows[5] == ("Sparks", "Nevada", 108_000)
        assert table.storage_version > before
        fresh = backend.column_kernel("Cities", 1)
        assert fresh is not kernel
        assert fresh.python_keys()[5] == "Nevada"


class TestBackendLifecycle:
    def test_duplicate_registration_rejected(self, store_and_table):
        backend, __ = store_and_table
        with pytest.raises(SchemaError):
            Table("Cities", [Column("X", DataType.INT)], backend=backend)

    def test_unknown_table_rejected(self):
        with pytest.raises(SchemaError):
            ColumnStore().num_rows("Ghost")

    def test_make_backend_accepts_only_numpy(self):
        assert isinstance(make_backend("numpy"), ColumnStore)
        for kind in ("python", "", "NumPy"):
            with pytest.raises(SchemaError, match="only backend"):
                make_backend(kind)

    def test_drop_frees_the_name(self, store_and_table):
        # Database.drop_table frees a name by detaching the table.
        backend, __ = store_and_table
        detached = backend.detach_table("Cities")
        with pytest.raises(SchemaError):
            backend.num_rows("Cities")
        Table("Cities", [Column("X", DataType.INT)], backend=backend)
        assert detached.num_rows("Cities") == 5
