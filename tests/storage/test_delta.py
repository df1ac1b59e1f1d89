"""Unit tests for the storage layer's append-delta tracking."""

from __future__ import annotations

from repro.dataset.schema import Column
from repro.dataset.types import DataType
import pytest

from repro.storage import ColumnStore, TableDelta, TableMark
from repro.storage.delta import NO_DICTIONARY


@pytest.fixture
def store(in_layout):
    store = ColumnStore()
    store.register_table("T", [
        Column("Name", DataType.TEXT),
        Column("Score", DataType.INT, nullable=True),
    ])
    for row in [("alpha", 1), ("beta", None), ("alpha", 3)]:
        store.append_row("T", row)
    store, = in_layout(store, "T")
    return store


class TestTableMark:
    def test_mark_captures_state(self, store):
        mark = store.table_mark("T")
        assert isinstance(mark, TableMark)
        assert mark.table == "T"
        assert mark.num_rows == 3
        assert mark.version == 3
        assert mark.column_count == 2
        assert mark.text_dict_lens == (2, NO_DICTIONARY)  # alpha, beta

    def test_base_backend_reports_no_capability(self):
        from repro.storage.backend import StorageBackend

        # The default implementations (used by exotic backends that never
        # override them) disable the delta path gracefully.
        assert StorageBackend.table_mark(object(), "T") is None
        assert StorageBackend.delta_since(object(), "T", None) is None


class TestDeltaSince:
    def test_empty_delta_for_unchanged_table(self, store):
        mark = store.table_mark("T")
        delta = store.delta_since("T", mark)
        assert isinstance(delta, TableDelta)
        assert delta.num_rows == 0
        assert delta.start_row == delta.end_row == 3

    def test_delta_covers_appended_rows_and_dictionary_entries(self, store):
        mark = store.table_mark("T")
        store.append_row("T", ("gamma", 4))
        store.append_row("T", ("alpha", None))
        delta = store.delta_since("T", mark)
        assert (delta.start_row, delta.end_row) == (3, 5)
        text, score = delta.columns
        assert text.values == ("gamma", "alpha")
        assert text.new_dictionary_entries == ("gamma",)
        assert text.codes == (2, 0)
        assert text.dict_len == 3
        assert score.values == (4, None)
        assert score.codes is None
        assert score.null_count == 1
        assert score.non_null_values == [4]
        # The new mark chains: a delta against it covers later appends only.
        store.append_row("T", ("delta", 5))
        chained = store.delta_since("T", delta.new_mark)
        assert (chained.start_row, chained.end_row) == (5, 6)
        assert chained.columns[0].new_dictionary_entries == ("delta",)

    def test_delta_values_are_snapshots(self, store):
        mark = store.table_mark("T")
        store.append_row("T", ("gamma", 4))
        delta = store.delta_since("T", mark)
        store.append_row("T", ("omega", 9))
        # The captured delta is unaffected by the later append.
        assert delta.end_row == 4
        assert delta.columns[0].values == ("gamma",)
        assert delta.columns[1].values == (4,)

    def test_mark_for_different_layout_is_rejected(self, store):
        mark = store.table_mark("T")
        other = ColumnStore()
        other.register_table("T", [Column("Name", DataType.TEXT)])
        other.append_row("T", ("x",))
        assert other.delta_since("T", mark) is None

    def test_drop_and_recreate_is_rejected(self, store):
        mark = store.table_mark("T")
        store.drop_table("T")
        store.register_table("T", [
            Column("Name", DataType.TEXT),
            Column("Score", DataType.INT, nullable=True),
        ])
        store.append_row("T", ("fresh", 1))
        # The recreated store has a different identity token (and here its
        # version is also behind the mark's): no delta.
        assert store.delta_since("T", mark) is None

    def test_drop_and_recreate_with_more_rows_is_rejected(self, store):
        mark = store.table_mark("T")
        store.drop_table("T")
        store.register_table("T", [
            Column("Name", DataType.TEXT),
            Column("Score", DataType.INT, nullable=True),
        ])
        for row in [("a", 1), ("b", 2), ("c", 3), ("d", 4)]:
            store.append_row("T", row)
        # Version arithmetic alone would read as one appended row (4 rows
        # vs the mark's 3, versions likewise); only the store token proves
        # the first three rows were replaced, not kept.
        assert store.delta_since("T", mark) is None

    def test_store_token_survives_pickling(self, store):
        import pickle

        mark = store.table_mark("T")
        copy = pickle.loads(pickle.dumps(store))
        # The unpickled copy shares the original's append lineage, so a
        # mark from the original remains a valid delta base for it.
        copy.append_row("T", ("delta", 9))
        delta = copy.delta_since("T", mark)
        assert delta is not None
        assert delta.num_rows == 1
        assert delta.columns[0].values == ("delta",)

    def test_mark_from_the_future_is_rejected(self, store):
        future = store.table_mark("T")
        fresh = ColumnStore()
        fresh.register_table("T", [
            Column("Name", DataType.TEXT),
            Column("Score", DataType.INT, nullable=True),
        ])
        assert fresh.delta_since("T", future) is None


class TestDatabaseDeltas:
    def test_storage_marks_and_deltas(self, company_db):
        marks = company_db.storage_marks()
        assert marks is not None
        assert set(marks) == set(company_db.table_names)
        assert company_db.storage_deltas_since(marks) == {}
        company_db.table("Department").insert(("Quality", "Flint", 50_000.0))
        deltas = company_db.storage_deltas_since(marks)
        assert set(deltas) == {"Department"}
        assert deltas["Department"].num_rows == 1

    def test_table_set_change_invalidates_marks(self, company_db):
        marks = company_db.storage_marks()
        company_db.create_table(
            "Extra", [Column("Id", DataType.INT)]
        )
        assert company_db.storage_deltas_since(marks) is None
