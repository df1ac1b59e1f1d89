"""Properties and edge cases of the column store's array representation.

The contract suites (``test_column_store``, ``test_delta``,
``test_column_store_concurrency``) cover the :class:`StorageBackend`
behavior.  This module covers what follows from keeping columns in typed
NumPy arrays:

* dictionary-code stability across appends (codes are immutable once
  assigned; the dictionary only ever grows at the tail);
* NULL-mask semantics — predicates are never shown a NULL;
* int64 overflow → object-column promotion, transparent to readers and
  to the delta path;
* NaN float cells: scans show them to predicates, and NaN join keys
  never join on the executor's semijoin sweep, exactly as in the
  reference evaluator;
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
import random

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

    def test_nan_join_keys_never_join_on_the_sweep(self):
        """Seeded small databases with NaN keys in float ⋈ float and
        float ⋈ int joins: every probe the sweep decides, and every
        ``execute``, equals the reference evaluator."""
        from repro.dataset import Database
        from repro.dataset.schema import ColumnRef, ForeignKey
        from repro.query.executor import BatchProbe, Executor
        from repro.query.pj_query import ProjectJoinQuery
        from repro.query.reference import execute_reference, exists_reference

        nan = float("nan")
        float_keys = [nan, nan, None, 1.0, 2.0, 2.5, 3.0]
        int_keys = [None, 1, 2, 3, 4]
        float_float = ForeignKey("L", "k", "R", "k")
        int_float = ForeignKey("N", "k", "L", "k")
        queries = [
            ProjectJoinQuery(
                (ColumnRef("L", "v"), ColumnRef("R", "w")), (float_float,)
            ),
            ProjectJoinQuery(
                (ColumnRef("L", "v"), ColumnRef("N", "u")), (int_float,)
            ),
            ProjectJoinQuery(
                (ColumnRef("R", "w"), ColumnRef("N", "u"), ColumnRef("L", "v")),
                (float_float, int_float),
            ),
        ]
        for seed in range(60):
            rng = random.Random(seed)
            database = Database(f"nan-{seed}")
            columns = {"L": "v", "R": "w", "N": "u"}
            for name, payload in columns.items():
                key_type = DataType.INT if name == "N" else DataType.DECIMAL
                database.create_table(
                    name,
                    [Column("k", key_type), Column(payload, DataType.INT)],
                )
            for name in columns:
                keys = int_keys if name == "N" else float_keys
                rows = [
                    (rng.choice(keys), rng.randrange(10))
                    for __ in range(rng.randint(1, 8))
                ]
                if name != "N":
                    rows.append((nan, rng.randrange(10)))
                database.table(name).insert_many(rows)
            executor = Executor(database)
            for query in queries:
                naive = execute_reference(database, query)
                assert sorted(executor.execute(query)) == sorted(naive)
                assert executor.exists(query) == bool(naive)
                probes = [
                    BatchProbe(query, {0: (lambda low: lambda v: v >= low)(low)})
                    for low in range(0, 10, 3)
                ]
                assert executor.exists_batch(probes) == [
                    exists_reference(database, query, probe.cell_predicates)
                    for probe in probes
                ]
            # The sweep decided the probes: float ⋈ float compares arrays,
            # float ⋈ int Python sets.
            modes = {edge.mode for edge in executor._edge_kernels.values()}
            assert modes == {"array", "set"}


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
            "nevada_rows": store.select_rows("Cities", 1, lambda v: v == "Nevada"),
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
        assert report["nevada_rows"] == [0, 3, 4, 5]
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
