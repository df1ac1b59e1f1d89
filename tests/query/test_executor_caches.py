"""Tests for the executor's cache generation, its reusable edge kernels
and edge-case semantics of the vectorized path.

The rule: every executor cache — lowered plans, edge kernels, Bloom
membership masks and the outcomes callers store in
:attr:`Executor.outcomes` — holds for exactly one
``Database.artifact_key()``.  After an append, and after a table
drop-and-recreate, a held executor rebuilds all of them, and its answers
equal a fresh executor's.
"""

from __future__ import annotations

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import AnyValue, ExactValue
from repro.dataset import Column, Database, DataType
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery import validation
from repro.discovery.candidates import CandidateQuery
from repro.discovery.filters import build_filters
from repro.discovery.validation import FilterValidator
from repro.errors import QueryError
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import _connected_edge_order
from repro.query.reference import execute_reference

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
        # An append to either side moves the artifact key, so the edge
        # kernel is rebuilt over the grown columns.
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


def _parent_child() -> Database:
    """Three parents; four children, the last dangling (no parent yet)."""
    database = Database("generations")
    parent = database.create_table(
        "Parent", [Column("key", DataType.TEXT), Column("name", DataType.TEXT)]
    )
    child = database.create_table(
        "Child", [Column("parent", DataType.TEXT), Column("label", DataType.TEXT)]
    )
    parent.insert_many([("a", "parent a"), ("b", "parent b"), ("c", "parent c")])
    child.insert_many(
        [("a", "kept"), ("b", "kept"), ("c", "kept"), ("late", "orphan")]
    )
    database.link("Child.parent", "Parent.key")
    return database


FAMILY = ProjectJoinQuery(
    (ColumnRef("Child", "label"), ColumnRef("Parent", "name")),
    (ForeignKey("Child", "parent", "Parent", "key"),),
)
ORPHAN = {0: ExactValue("orphan")}
PROBES = [ORPHAN, {0: ExactValue("kept")}, {1: ExactValue("late parent")}, None]


def _append(database, catalog):
    """The dangling child's parent arrives; the catalog folds the delta."""
    marks = database.storage_marks()
    database.table("Parent").insert(("late", "late parent"))
    catalog.apply_delta(
        database, database.storage_deltas_since(marks), database.artifact_key()
    )


def _recreate(database, catalog):
    """Parent is dropped and recreated with its columns reversed; the
    catalog is left describing the old state."""
    database.drop_table("Parent")
    parent = database.create_table(
        "Parent", [Column("name", DataType.TEXT), Column("key", DataType.TEXT)]
    )
    parent.insert_many([("parent a", "a"), ("late parent", "late")])


class TestOneGenerationPerArtifactKey:
    @pytest.mark.parametrize("change", [_append, _recreate])
    def test_a_new_key_rebuilds_every_cache(self, change):
        database = _parent_child()
        catalog = MetadataCatalog.build(database)
        executor = Executor(database, catalog)
        # The Bloom pre-filter decides the dangling child's probe.
        assert not executor.exists(FAMILY, ORPHAN)
        assert executor.stats.bloom_rejections == 1
        executor.execute(FAMILY)
        executor.outcomes["stored"] = False
        (edge,) = executor._edge_kernels.values()
        masks = {key: mask for key, mask in executor._bloom_masks.items()
                 if mask is not None}
        assert masks
        builds = executor.stats.plan_cache_builds

        change(database, catalog)

        fresh = Executor(database, catalog)
        for predicates in PROBES:
            assert executor.exists(FAMILY, predicates) == fresh.exists(
                FAMILY, predicates
            )
            assert executor.execute(FAMILY, predicates) == fresh.execute(
                FAMILY, predicates
            )
        assert executor.exists(FAMILY, ORPHAN)
        assert executor.stats.plan_cache_builds == builds + 1
        (rebuilt,) = executor._edge_kernels.values()
        assert rebuilt is not edge
        assert "stored" not in executor.outcomes
        if change is _append:
            # The catalog matches the new key, so Bloom pruning goes on,
            # over masks built against the folded filters.
            assert executor._bloom_masks.keys() >= masks.keys()
            assert all(executor._bloom_masks[key] is not mask
                       for key, mask in masks.items())
        else:
            # A catalog of an older key never prunes.
            assert executor._bloom_masks == {}

    def test_an_unchanged_key_keeps_every_cache(self, company_db):
        executor = Executor(company_db)
        executor.execute(JOIN_QUERY)
        executor.outcomes["stored"] = True
        edge = _edge_kernel(executor)
        executor.execute(JOIN_QUERY)
        assert executor.exists(JOIN_QUERY, {1: ExactValue("Alice Chen")})
        assert _edge_kernel(executor) is edge
        assert executor.stats.plan_cache_builds == 1
        assert executor.outcomes == {"stored": True}


class TestCountWithoutMaterialization:
    """Result-row counts of joins, read off :meth:`Executor.execute` (the
    only enumeration path) and checked against the reference evaluator."""

    def test_count_matches_execute_length(self, executor, company_db):
        four_table = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        assert len(executor.execute(four_table)) == len(
            execute_reference(company_db, four_table)
        ) == 7

    def test_count_with_predicates(self, executor):
        assert (
            len(executor.execute(JOIN_QUERY, {0: ExactValue("Ann Arbor")})) == 4
        )

    def test_count_empty_pushdown(self, executor):
        assert len(executor.execute(JOIN_QUERY, {0: ExactValue("Nowhere")})) == 0


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
            executor.execute(query, cell_predicates={1: AnyValue()})
        with pytest.raises(QueryError):
            executor.execute(query, cell_predicates={-1: AnyValue()})

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


class TestCacheBounds:
    def test_outcome_cache_keeps_the_newest_entries(
        self, executor, monkeypatch
    ):
        monkeypatch.setattr(validation, "MAX_CACHED_OUTCOMES", 3)
        spec = MappingSpec(1)
        names = ["Alice Chen", "Bob Diaz", "Carol Evans", "Nobody", "Eve Gupta"]
        for name in names:
            spec.add_sample_cells([ExactValue(name)])
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        filters = build_filters(spec, [CandidateQuery(0, query)]).filters
        assert len(filters) == len(names)
        validator = FilterValidator(executor, spec)
        for filter_ in filters:
            validator.validate(filter_)
        assert len(executor.outcomes) == 3
        executed = executor.stats.queries_executed
        # The newest outcome is still cached ...
        assert validator.validate(filters[-1])
        assert executor.stats.queries_executed == executed
        assert validator.stats.cache_hits == 1
        # ... the oldest was evicted, so validating it executes again.
        assert validator.validate(filters[0])
        assert executor.stats.queries_executed == executed + 1
        assert validator.stats.cache_misses == len(names) + 1
