"""Tests for the executor's reusable edge kernels, existence memo and
edge-case semantics of the vectorized path."""

from __future__ import annotations

import pytest

from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import _connected_edge_order

EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")

JOIN_QUERY = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)


@pytest.fixture()
def executor(company_db):
    return Executor(company_db)


def _edge_kernel(executor):
    """The executor's only cached edge kernel (JOIN_QUERY has one edge)."""
    (edge,) = executor._edge_kernels.values()
    return edge


class TestEdgeKernelReuse:
    def test_second_execute_reuses_the_edge_kernel(self, executor, company_db):
        executor.execute(JOIN_QUERY)
        first = _edge_kernel(executor)
        executor.execute(JOIN_QUERY)
        assert _edge_kernel(executor) is first
        # An append to either side publishes a new column kernel, so the
        # edge kernel bound to the old one is replaced.
        company_db.table("Employee").insert((7, "Grace Ito", "Sales", 88_000.0, 31))
        executor.execute(JOIN_QUERY)
        second = _edge_kernel(executor)
        assert second is not first
        company_db.table("Department").insert(("Support", "Toledo", 50_000.0))
        executor.execute(JOIN_QUERY)
        assert _edge_kernel(executor) is not second

    def test_edge_kernel_is_shared_across_queries_on_the_same_edge(self, executor):
        executor.execute(JOIN_QUERY)
        first = _edge_kernel(executor)
        other = ProjectJoinQuery(
            (ColumnRef("Department", "Budget"), ColumnRef("Employee", "Salary")),
            (EMP_DEPT,),
        )
        executor.execute(other)
        assert _edge_kernel(executor) is first

    def test_insert_on_the_many_side_is_joined(self, executor, company_db):
        executor.execute(JOIN_QUERY)
        company_db.table("Employee").insert((7, "Grace Ito", "Sales", 88_000.0, 31))
        rows = executor.execute(JOIN_QUERY)
        assert len(rows) == 7
        assert ("Chicago", "Grace Ito") in rows

    def test_insert_on_the_one_side_is_joined(self, executor, company_db):
        executor.execute(JOIN_QUERY)
        company_db.table("Department").insert(("Support", "Toledo", 50_000.0))
        rows = executor.execute(JOIN_QUERY)
        assert len(rows) == 6  # nobody works in Support yet

    def test_reused_executor_gives_same_rows_as_fresh_executor(self, executor, company_db):
        first = executor.execute(JOIN_QUERY)
        again = executor.execute(JOIN_QUERY)
        fresh = Executor(company_db).execute(JOIN_QUERY)
        assert first == again == fresh


class TestExistsMemo:
    def test_memo_hit_and_miss_counters(self, executor):
        predicates = {1: lambda v: "Alice" in v}
        key = ("probe", "alice")
        assert executor.exists(JOIN_QUERY, predicates, cache_key=key)
        assert executor.stats.exists_cache_misses == 1
        assert executor.stats.exists_cache_hits == 0
        assert executor.exists(JOIN_QUERY, predicates, cache_key=key)
        assert executor.stats.exists_cache_hits == 1
        assert executor.exists_memo_size == 1

    def test_memo_hit_skips_execution(self, executor):
        key = ("probe", "anything")
        executor.exists(JOIN_QUERY, cache_key=key)
        executed_before = executor.stats.queries_executed
        executor.exists(JOIN_QUERY, cache_key=key)
        assert executor.stats.queries_executed == executed_before

    def test_no_cache_key_means_no_memo(self, executor):
        executor.exists(JOIN_QUERY)
        executor.exists(JOIN_QUERY)
        assert executor.stats.exists_cache_hits == 0
        assert executor.stats.exists_cache_misses == 0
        assert executor.exists_memo_size == 0

    def test_memo_invalidated_when_database_changes(self, executor, company_db):
        predicates = {1: lambda v: v == "Grace Ito"}
        key = ("probe", "grace")
        assert not executor.exists(JOIN_QUERY, predicates, cache_key=key)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        assert executor.exists(JOIN_QUERY, predicates, cache_key=key)
        assert executor.stats.exists_cache_misses == 2


class TestCountWithoutMaterialization:
    def test_count_matches_execute_length(self, executor):
        four_table = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        assert executor.count(four_table) == len(executor.execute(four_table))

    def test_count_does_not_emit_rows(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        executor.count(query)
        assert executor.stats.rows_emitted == 0

    def test_count_with_predicates(self, executor):
        assert (
            executor.count(JOIN_QUERY, {0: lambda city: city == "Ann Arbor"}) == 4
        )

    def test_count_empty_pushdown(self, executor):
        assert executor.count(JOIN_QUERY, {0: lambda city: False}) == 0


class TestEdgeSemantics:
    def test_null_join_keys_never_match_through_cached_index(self):
        database = Database("nulljoin")
        left = database.create_table(
            "L", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
        )
        right = database.create_table(
            "R", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
        )
        left.insert_many([("a", 1), (None, 2)])
        right.insert_many([("a", 10), (None, 20)])
        database.link("L.k", "R.k")
        query = ProjectJoinQuery(
            (ColumnRef("L", "v"), ColumnRef("R", "w")),
            (ForeignKey("L", "k", "R", "k"),),
        )
        executor = Executor(database)
        # Twice: once building the edge kernel, once reusing it.
        assert executor.execute(query) == [(1, 10)]
        assert executor.execute(query) == [(1, 10)]
        assert executor.exists(query)

    def test_limit_terminates_early(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        rows = executor.execute(query, limit=2)
        assert len(rows) == 2
        assert executor.stats.rows_emitted == 2

    def test_limit_zero_rows(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        assert executor.execute(query, limit=0) == []

    def test_cell_predicate_position_out_of_range(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        with pytest.raises(QueryError):
            executor.execute(query, cell_predicates={1: lambda v: True})
        with pytest.raises(QueryError):
            executor.execute(query, cell_predicates={-1: lambda v: True})

    def test_disconnected_join_edges_raise(self):
        # Two edges that never touch a common table cannot be ordered into
        # a connected join tree; _connected_edge_order reports that
        # directly.
        query = ProjectJoinQuery(
            (ColumnRef("A", "x"),),
            (
                ForeignKey("A", "x", "B", "x"),
                ForeignKey("C", "y", "D", "y"),
            ),
        )
        with pytest.raises(QueryError, match="connected tree"):
            _connected_edge_order(query)

    def test_empty_table_join_is_empty(self):
        database = Database("emptyjoin")
        left = database.create_table("L", [Column("k", DataType.INT)])
        database.create_table("R", [Column("k", DataType.INT)])
        left.insert((1,))
        query = ProjectJoinQuery(
            (ColumnRef("L", "k"), ColumnRef("R", "k")),
            (ForeignKey("L", "k", "R", "k"),),
        )
        assert Executor(database).execute(query) == []


class TestSchemaChangeInvalidation:
    def _rebuild_b(self, database, reorder):
        database.drop_table("B")
        columns = [Column("k", DataType.TEXT), Column("w", DataType.INT)]
        if reorder:
            columns.reverse()
        table = database.create_table("B", columns)
        return table

    def test_plan_cache_dropped_when_table_recreated_with_new_layout(self):
        database = Database("replan")
        a = database.create_table(
            "A", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
        )
        b = database.create_table(
            "B", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
        )
        a.insert(("x", 1))
        b.insert(("x", 10))
        query = ProjectJoinQuery(
            (ColumnRef("A", "v"), ColumnRef("B", "w")),
            (ForeignKey("A", "k", "B", "k"),),
        )
        executor = Executor(database)
        assert executor.execute(query) == [(1, 10)]
        # Recreate B with its columns reordered; the stale plan would read
        # the wrong column as the join key.
        b2 = self._rebuild_b(database, reorder=True)
        b2.insert((20, "x"))
        assert executor.execute(query) == [(1, 20)]

    def test_exists_memo_dropped_when_table_recreated(self):
        database = Database("rememo")
        table = database.create_table("T", [Column("a", DataType.TEXT)])
        table.insert(("alpha",))
        query = ProjectJoinQuery((ColumnRef("T", "a"),))
        executor = Executor(database)
        key = ("has-beta",)
        predicates = {0: lambda v: v == "beta"}
        assert not executor.exists(query, predicates, cache_key=key)
        # Drop and recreate with the same name and one matching row: the
        # naive (count, summed-versions) token would collide here.
        database.drop_table("T")
        fresh = database.create_table("T", [Column("a", DataType.TEXT)])
        fresh.insert(("beta",))
        assert executor.exists(query, predicates, cache_key=key)


class TestCacheBounds:
    def test_exists_memo_evicts_oldest_beyond_cap(self, executor, monkeypatch):
        import repro.query.executor as executor_module

        monkeypatch.setattr(executor_module, "MAX_EXISTS_MEMO_ENTRIES", 3)
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        for i in range(5):
            executor.exists(query, cache_key=("probe", i))
        assert executor.exists_memo_size == 3
        # Oldest entries were evicted; re-probing them misses again.
        misses_before = executor.stats.exists_cache_misses
        executor.exists(query, cache_key=("probe", 0))
        assert executor.stats.exists_cache_misses == misses_before + 1
        # Newest entry is still memoized.
        hits_before = executor.stats.exists_cache_hits
        executor.exists(query, cache_key=("probe", 4))
        assert executor.stats.exists_cache_hits == hits_before + 1
