"""Properties and edge cases of the column store's array representation.

The contract suites (``test_column_store``, ``test_delta``,
``test_column_store_concurrency``) cover the :class:`StorageBackend`
behavior.  This module covers what follows from keeping columns in typed
NumPy arrays:

* dictionary-code stability across appends (codes are immutable once
  assigned; the dictionary only ever grows at the tail);
* NULL-mask semantics — predicates are never shown a NULL, join indexes
  never contain one;
* int64 overflow → object-column promotion, transparent to readers and
  to the delta path;
* NaN float columns: excluded from the kernel path
  (:attr:`ColumnKernel.nan_unsafe`), with the executor's generic path
  answering exactly as the kernel-disabled executor and the reference;
* kernel snapshots — fresh identity after every append, stable decoded
  views;
* pickle round-trips across real process boundaries under the
  ``PRISM_TEST_START_METHODS`` fork/spawn matrix, with delta lineage
  surviving the hop;
* the stale-handle (drop → recreate) and ``insert_many`` failure-index
  behaviors;
* the ``ArtifactStore`` delta-overflow fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.dataset.schema import Column
from repro.dataset.table import Table
from repro.dataset.types import DataType
from repro.errors import DataError
from repro.storage import ColumnStore


def _start_methods() -> list[str]:
    configured = os.environ.get("PRISM_TEST_START_METHODS")
    if configured:
        return [m.strip() for m in configured.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    return ["fork"] if "fork" in available else ["spawn"]


START_METHODS = _start_methods()


def _cities():
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
    return backend, table


class TestDictionaryStability:
    def test_codes_never_change_once_assigned(self):
        __, table = _cities()
        before_codes, before_dictionary = table.text_column_codes("State")
        table.insert_many(
            [
                ("Sparks", "Nevada", 108_000),      # existing entry
                ("Eugene", "Oregon", 178_000),      # brand-new entry
                ("Salem", None, 175_000),           # NULL text cell
            ]
        )
        codes, dictionary = table.text_column_codes("State")
        # Prefix unchanged, dictionary extended strictly at the tail.
        assert codes[: len(before_codes)] == before_codes
        assert dictionary[: len(before_dictionary)] == before_dictionary
        assert dictionary == ["Nevada", "California", "Oregon"]
        assert codes[5:] == [0, 2, codes[7]] and codes[7] < 0

    def test_codes_follow_first_appearance(self):
        __, table = _cities()
        assert table.text_column_codes("Name") == (
            [0, 1, 2, 3, -1], ["Reno", "Fresno", "Oakland", "Elko"]
        )
        assert table.text_column_codes("State") == (
            [0, 1, 1, 0, 0], ["Nevada", "California"]
        )


class TestNullSemantics:
    def test_predicates_are_never_shown_null(self):
        __, table = _cities()
        # These predicates raise on None — a NULL reaching them fails.
        assert table.select_rows("Name", lambda v: v.startswith("E")) == [3]
        assert table.select_rows("Population", lambda v: v > 0) == [0, 1, 2, 4]

    def test_join_index_never_contains_null(self):
        __, table = _cities()
        for column in ("Name", "Population"):
            index = table.join_index(column)
            assert None not in index
            total = sum(len(bucket) for bucket in index.values())
            assert total == table.num_rows - table.null_count(column)


class TestOverflowPromotion:
    def test_int64_overflow_promotes_to_object_column(self):
        store = ColumnStore()
        store.register_table("T", [Column("n", DataType.INT)])
        store.append_row("T", (1,))
        mark = store.table_mark("T")
        huge, negative = 2**63, -(2**64)
        store.append_row("T", (huge,))
        store.append_row("T", (negative,))
        store.append_row("T", (None,))
        assert store.column_values("T", 0) == [1, huge, negative, None]
        assert store.cell("T", 1, 0) == huge
        assert store.select_rows("T", 0, lambda v: v > 10) == [1]
        assert store.distinct_values("T", 0) == {1, huge, negative}
        assert store.value_counts("T", 0) == {1: 1, huge: 1, negative: 1}
        # The delta path is agnostic to the physical promotion.
        delta = store.delta_since("T", mark)
        assert delta is not None
        assert delta.columns[0].values == (huge, negative, None)

    def test_promoted_column_survives_pickle(self):
        store = ColumnStore()
        store.register_table("T", [Column("n", DataType.INT)])
        store.append_row("T", (2**70,))
        copy = pickle.loads(pickle.dumps(store))
        assert copy.column_values("T", 0) == [2**70]
        copy.append_row("T", (7,))
        assert copy.column_values("T", 0) == [2**70, 7]


class TestNaNColumns:
    def _scores(self):
        backend = ColumnStore()
        backend.register_table("S", [Column("x", DataType.DECIMAL)])
        for value in (1.0, float("nan"), None, 2.5):
            backend.append_row("S", (value,))
        return backend

    def test_scans_show_nan_to_predicates(self):
        store = self._scores()
        # NaN != NaN rules row 1 out; NULL rules row 2 out.
        assert store.select_rows("S", 0, lambda v: v == v) == [0, 3]
        # An always-true predicate still sees the NaN cell (it is not
        # NULL), as a row-at-a-time scan would.
        assert store.select_rows("S", 0, lambda v: True) == [0, 1, 3]

    def test_nan_column_is_kernel_unsafe(self):
        store = self._scores()
        assert store.column_kernel("S", 0).nan_unsafe
        clean = ColumnStore()
        clean.register_table("S", [Column("x", DataType.DECIMAL)])
        clean.append_row("S", (1.5,))
        clean.append_row("S", (None,))
        assert not clean.column_kernel("S", 0).nan_unsafe

    def test_executor_declines_kernels_on_nan_join_keys(self, monkeypatch):
        import repro.query.executor as executor_module
        from repro.dataset import Database
        from repro.dataset.schema import ColumnRef
        from repro.query.executor import Executor
        from repro.query.pj_query import ProjectJoinQuery
        from repro.query.reference import execute_reference

        results = {}
        # Kernel-forced against kernel-disabled (above every row count).
        for kernel_min_rows in (0, 10**9):
            monkeypatch.setattr(
                executor_module, "KERNEL_MIN_ROWS", kernel_min_rows
            )
            database = Database("nan")
            left = database.create_table(
                "L", [Column("k", DataType.DECIMAL), Column("v", DataType.INT)]
            )
            right = database.create_table(
                "R", [Column("k", DataType.DECIMAL), Column("w", DataType.INT)]
            )
            left.insert_many(
                [(1.0, 10), (float("nan"), 11), (2.0, 12), (None, 13)]
            )
            right.insert_many([(2.0, 20), (float("nan"), 21), (3.0, 22)])
            database.link("L.k", "R.k")
            query = ProjectJoinQuery(
                (ColumnRef("L", "v"), ColumnRef("R", "w")),
                tuple(database.foreign_keys),
            )
            executor = Executor(database)
            results[kernel_min_rows] = (
                executor.execute(query),
                executor.exists(query, cell_predicates={0: lambda v: v > 11}),
                executor.stats,
                executor,
            )
        forced, disabled = results[0], results[10**9]
        # NaN keys force the generic path: no edge kernels were built.
        assert not forced[3]._edge_kernels
        assert forced[0] == disabled[0] == [(12, 20)]
        assert execute_reference(database, query) == [(12, 20)]
        assert forced[1] is disabled[1] is True
        assert forced[2] == disabled[2]


class TestKernelSnapshots:
    def test_fresh_kernel_identity_after_append(self):
        store, table = _cities()
        first = store.column_kernel("Cities", 1)
        assert store.column_kernel("Cities", 1) is first  # cached
        table.insert(("Sparks", "Nevada", 108_000))
        second = store.column_kernel("Cities", 1)
        assert second is not first
        # The old snapshot still reads consistently at its own length.
        assert len(first.keys) == 5 and len(second.keys) == 6

    def test_kernel_views_decode_to_column_values(self):
        store, table = _cities()
        for position, column in enumerate(("Name", "State", "Population")):
            kernel = store.column_kernel("Cities", position)
            assert kernel.python_keys() == table.column_values(column)
            assert (~kernel.valid).tolist() == table.null_mask(column)
        text = store.column_kernel("Cities", 1)
        assert text.kind == "text"
        assert text.dictionary == ["Nevada", "California"]
        assert text.code_of == {"Nevada": 0, "California": 1}


# ----------------------------------------------------------------------
# Pickle round-trips across real process boundaries (fork/spawn matrix)
# ----------------------------------------------------------------------
def _exercise_in_child(store, mark, queue):
    """Append in the child and report what the shipped store looks like."""
    try:
        store.append_row("Cities", ("Sparks", "Nevada", 108_000))
        delta = store.delta_since("Cities", mark)
        queue.put({
            "rows": store.rows("Cities"),
            "dictionary": store.text_dictionary("Cities", 1),
            "index_nevada": store.join_index("Cities", 1)["Nevada"],
            "delta_rows": None if delta is None else delta.num_rows,
            "delta_values": None if delta is None else delta.columns[0].values,
        })
    except Exception as exc:  # pragma: no cover - failure path
        queue.put({"error": repr(exc)})


class TestPickleAcrossProcesses:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_round_trip_preserves_data_and_delta_lineage(self, method):
        context = multiprocessing.get_context(method)
        store, table = _cities()
        # Warm every derived cache: none of them may leak into the child
        # half-built (or at all — pickling trims to logical state).
        table.join_index("State")
        table.select_rows("Population", lambda v: v > 0)
        parent_rows = table.rows
        store.column_kernel("Cities", 1)
        mark = store.table_mark("Cities")

        queue = context.Queue()
        child = context.Process(
            target=_exercise_in_child, args=(store, mark, queue)
        )
        child.start()
        try:
            report = queue.get(timeout=60)
        finally:
            child.join(timeout=60)
        assert "error" not in report, report
        assert report["rows"] == parent_rows + [("Sparks", "Nevada", 108_000)]
        assert report["dictionary"] == ["Nevada", "California"]
        assert report["index_nevada"] == [0, 3, 4, 5]
        # The parent's mark stayed a valid delta base across the hop.
        assert report["delta_rows"] == 1
        assert report["delta_values"] == ("Sparks",)
        # The parent's copy never saw the child's append.
        assert table.num_rows == 5


# ----------------------------------------------------------------------
# Regression: stale handles and bulk-load diagnostics
# ----------------------------------------------------------------------
class TestBackendRegressions:
    def test_stale_handle_stays_isolated_after_drop_recreate(self):
        from repro.dataset import Database

        database = Database("stale")
        stale = database.create_table(
            "P", [Column("Code", DataType.TEXT), Column("N", DataType.INT)]
        )
        stale.insert_many([("a", 1), ("b", 2)])
        database.drop_table("P")
        fresh = database.create_table("P", [Column("Number", DataType.INT)])
        fresh.insert((42,))
        # The stale handle keeps its data; writes to it never leak.
        assert stale.rows == [("a", 1), ("b", 2)]
        stale.insert(("c", 3))
        assert stale.rows == [("a", 1), ("b", 2), ("c", 3)]
        assert fresh.rows == [(42,)]
        assert database.table("P") is fresh

    def test_insert_many_failure_index_and_partial_load(self):
        table = Table(
            "T", [Column("Name", DataType.TEXT), Column("N", DataType.INT)]
        )
        with pytest.raises(DataError, match=r"row 2:"):
            table.insert_many(
                [("ok", 1), ("fine", 2), ("bad", "not a number"), ("never", 4)]
            )
        # Rows before the failure were inserted; nothing after it was.
        assert table.rows == [("ok", 1), ("fine", 2)]


class TestArtifactDeltaOverflow:
    def test_overflow_falls_back_to_rebuild(self):
        from repro.api import ArtifactStore
        from repro.service.artifacts import ArtifactKey
        from tests.conftest import build_company_database

        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.05)
        store.get(database)
        for i in range(5):  # 5 rows > 5% of the ~19-row company database
            database.table("Project").insert((f"P5{i}", f"Bulk {i}", 1.0))
        bundle = store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["delta_overflow"] == 1
        assert bundle.key == ArtifactKey.for_database(database)
