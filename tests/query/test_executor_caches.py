"""Tests for the executor's cache generation, its reusable edge kernels
and edge-case semantics of the vectorized path.

The rule: every executor cache — lowered plans, edge kernels, Bloom
membership masks, the planner's memos and the outcomes callers store in
:attr:`Executor.outcomes` — holds for exactly one
``Database.artifact_key()``.  After an append, and after a table
drop-and-recreate, a held executor rebuilds all of them, and its answers
equal a fresh executor's.

The derived caches live in an :class:`ExecutorCache` that an artifact
bundle carries for every engine over it: a second round on one bundle
builds nothing again, a cold and a warm bundle give the same answers and
counters, an executor whose database moved past the bundle's key leaves
the bundle's cache alone, and each entry is built once per key.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import ArtifactStore, DiscoveryRequest, DiscoveryService
from repro.constraints.spec import MappingSpec
from repro.constraints.values import AnyValue, ExactValue
from repro.dataset import Column, Database, DataType
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.datasets.synthetic import generate_synthetic_database
from repro.discovery import validation
from repro.discovery.candidates import CandidateQuery, GenerationLimits
from repro.discovery.engine import Prism
from repro.discovery.filters import build_filters
from repro.discovery.validation import FilterValidator
from repro.errors import QueryError
from repro.query import kernels
from repro.query.executor import Executor
from repro.query.planner import Planner
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
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
    (edge,) = executor.cache.edge_kernels.values()
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
        cache = executor.cache
        (edge,) = cache.edge_kernels.values()
        masks = {key: mask for key, mask in cache.bloom_masks.items()
                 if mask is not None}
        assert masks
        assert cache.structure_orders == {} and cache.edge_selectivity
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
        rebuilt_cache = executor.cache
        assert rebuilt_cache is not cache
        assert rebuilt_cache.key == database.artifact_key()
        (rebuilt,) = rebuilt_cache.edge_kernels.values()
        assert rebuilt is not edge
        assert "stored" not in executor.outcomes
        # The planner memoizes into the new generation's cache.
        assert executor.planner.memos is rebuilt_cache
        if change is _append:
            # The catalog matches the new key, so Bloom pruning goes on,
            # over masks built against the folded filters.
            assert rebuilt_cache.bloom_masks.keys() >= masks.keys()
            assert all(rebuilt_cache.bloom_masks[key] is not mask
                       for key, mask in masks.items())
        else:
            # A catalog of an older key never prunes.
            assert rebuilt_cache.bloom_masks == {}

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
        scanned = executor.stats.rows_scanned
        # The newest outcome is still cached ...
        assert validator.validate(filters[-1])
        assert executor.stats.rows_scanned == scanned
        assert validator.stats.cache_hits == 1
        assert validator.stats.cache_misses == len(names)
        # ... the oldest was evicted, so validating it executes again.
        assert validator.validate(filters[0])
        assert executor.stats.rows_scanned > scanned
        assert validator.stats.cache_misses == len(names) + 1


# ----------------------------------------------------------------------
# The bundle's cache: one per artifact key, shared by its engines
# ----------------------------------------------------------------------
CACHE_PARTS = (
    "plans", "edge_kernels", "bloom_masks", "edge_selectivity",
    "structure_orders",
)


def _count_builds(monkeypatch) -> Counter:
    """Count lowered plans (one ordering pass each), edge kernels and
    Bloom masks built from now on."""
    builds: Counter = Counter()

    class CountingEdgeKernel(kernels.EdgeKernel):
        def __init__(self, existing, new):
            builds["edge_kernels"] += 1
            super().__init__(existing, new)

    class CountingBloomMask(kernels.BloomMask):
        def __init__(self, kernel, bloom):
            builds["bloom_masks"] += 1
            super().__init__(kernel, bloom)

    join_order = Planner.join_order

    def counting_join_order(self, query):
        builds["plans"] += 1
        return join_order(self, query)

    monkeypatch.setattr(kernels, "EdgeKernel", CountingEdgeKernel)
    monkeypatch.setattr(kernels, "BloomMask", CountingBloomMask)
    monkeypatch.setattr(Planner, "join_order", counting_join_order)
    return builds


def _company_specs() -> list[MappingSpec]:
    """Single-table and join specs; the joins constrain both sides, so
    Bloom pre-filtering runs."""
    specs = []
    for cells in (
        [ExactValue("Ann Arbor"), ExactValue("Alice Chen")],
        [ExactValue("Chicago"), ExactValue("Frank Hill")],
        [ExactValue("Engineering"), ExactValue("Query Optimizer")],
        [ExactValue("Alice Chen"), None],
    ):
        specs.append(MappingSpec(2).add_sample_cells(cells))
    return specs


def _answer(result) -> tuple:
    """A round's SQL and its counters, without timings."""
    stats = {key: value for key, value in result.stats.as_dict().items()
             if not key.endswith("seconds")}
    return result.sql(), stats


def _entries(cache) -> dict:
    return {part: dict(getattr(cache, part)) for part in CACHE_PARTS}


class TestBundleCache:
    def test_a_second_round_on_one_bundle_builds_nothing(
        self, company_db, monkeypatch
    ):
        bundle = ArtifactStore().get(company_db)
        builds = _count_builds(monkeypatch)
        first = [Prism.from_artifacts(bundle).discover(spec)
                 for spec in _company_specs()]
        assert builds["plans"] and builds["edge_kernels"]
        assert builds["bloom_masks"]
        builds.clear()
        second = [Prism.from_artifacts(bundle).discover(spec)
                  for spec in _company_specs()]
        assert builds == Counter()
        assert [_answer(r) for r in second] == [_answer(r) for r in first]

    def test_cold_and_warm_bundles_give_the_same_answers_and_counters(
        self, company_db
    ):
        """Counters describe each engine's own lookups, so even the plan
        and sketch counters do not depend on how warm the bundle is."""
        warm = ArtifactStore().get(company_db)
        for spec in _company_specs():
            Prism.from_artifacts(warm).discover(spec)
        assert all(_entries(warm.cache).values())
        for spec in _company_specs():
            cold = ArtifactStore().get(company_db)
            assert not any(_entries(cold.cache).values())
            assert _answer(Prism.from_artifacts(warm).discover(spec)) == (
                _answer(Prism.from_artifacts(cold).discover(spec))
            )

    def test_an_executor_past_the_bundle_key_leaves_the_bundle_alone(self):
        database = _parent_child()
        bundle = ArtifactStore().get(database)
        executor = Executor(database, bundle.catalog, cache=bundle.cache)
        assert executor.cache is bundle.cache
        for predicates in PROBES:
            executor.exists(FAMILY, predicates)
            executor.execute(FAMILY, predicates)
        executor.planner.structure_rows(FAMILY)
        # The Bloom pre-filter decided the dangling child's probe.
        assert not executor.exists(FAMILY, ORPHAN)
        assert executor.stats.bloom_rejections
        before = _entries(bundle.cache)
        assert all(before.values())

        # The orphan's parent arrives; the bundle is not refreshed.
        database.table("Parent").insert(("late", "late parent"))
        fresh = Executor(database, bundle.catalog)
        for predicates in PROBES:
            assert executor.exists(FAMILY, predicates) == fresh.exists(
                FAMILY, predicates
            )
            assert executor.execute(FAMILY, predicates) == fresh.execute(
                FAMILY, predicates
            )
        assert executor.exists(FAMILY, ORPHAN)
        executor.planner.structure_rows(FAMILY)
        assert executor.cache is not bundle.cache
        assert executor.planner.memos is executor.cache
        after = _entries(bundle.cache)
        assert after == before
        assert all(after[part][key] is value
                   for part, entries in before.items()
                   for key, value in entries.items())

    def test_each_entry_is_built_once_per_key(self, monkeypatch):
        """A stream of rounds through a thread-mode service builds each
        plan, edge kernel and Bloom mask of the bundle's key once."""
        database = generate_synthetic_database(
            4, 400, topology="random", seed=3, skew=1.1,
            dangling_fk_fraction=0.3,
        )
        catalog = MetadataCatalog.build(database)
        generator = WorkloadGenerator(database, seed=5)
        requests = [
            DiscoveryRequest(database.name, spec_for_level(
                generator.generate_case(num_columns=3, num_tables=2),
                level, database, catalog=catalog, seed=0,
            ))
            for __ in range(3)
            for level in (ResolutionLevel.EXACT, ResolutionLevel.MIXED,
                          ResolutionLevel.DISJUNCTION)
        ]
        service = DiscoveryService(
            databases={database.name: database},
            limits=GenerationLimits(max_candidates=60),
        )
        bundle = service.store.get(database)
        builds = _count_builds(monkeypatch)
        responses = [service.execute(request) for request in requests]
        assert [response.status for response in responses] == (
            ["ok"] * len(requests)
        )
        masks = [mask for mask in bundle.cache.bloom_masks.values()
                 if mask is not None]
        assert masks and bundle.cache.edge_kernels
        assert builds == {
            "plans": len(bundle.cache.plans),
            "edge_kernels": len(bundle.cache.edge_kernels),
            "bloom_masks": len(masks),
        }
