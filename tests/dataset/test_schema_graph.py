"""Unit tests for the schema graph and join-tree enumeration."""

from __future__ import annotations

import itertools

import pytest

from repro import generate_synthetic_database, load_imdb, load_mondial, load_nba
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset import schema_graph
from repro.dataset.schema_graph import SchemaGraph
from repro.discovery.engine import Prism
from repro.errors import SchemaError
from repro.service import artifacts
from repro.service.artifacts import ArtifactStore

#: The bundled databases and seeded synthetic schemas of every topology.
_SCHEMAS = {
    "mondial": load_mondial,
    "imdb": load_imdb,
    "nba": load_nba,
    **{
        f"{topology}-{seed}": (
            lambda topology=topology, seed=seed: generate_synthetic_database(
                6, 20, topology=topology, seed=seed
            )
        )
        for topology in ("random", "chain", "star")
        for seed in (1, 2)
    },
}
#: ``(max_tables, max_trees)`` bounds.  Two share ``max_tables``, so a
#: memo keyed without ``max_trees`` would answer one with the other's trees.
_BOUNDS = [(None, None), (2, None), (3, 1), (4, 2), (4, 6), (5, None)]


@pytest.fixture()
def graph(company_db):
    return SchemaGraph(company_db)


class TestBasicQueries:
    def test_tables_are_nodes(self, graph, company_db):
        assert set(graph.tables) == set(company_db.table_names)

    def test_neighbors(self, graph):
        assert graph.neighbors("Employee") == {"Department", "Assignment"}
        assert graph.neighbors("Project") == {"Assignment"}

    def test_neighbors_unknown_table(self, graph):
        with pytest.raises(SchemaError):
            graph.neighbors("Ghost")

    def test_join_edges_between(self, graph):
        edges = graph.join_edges("Assignment", "Employee")
        assert len(edges) == 1
        assert edges[0].child_column == "EmployeeId"
        assert graph.join_edges("Department", "Project") == []
        assert graph.join_edges("Department", "Ghost") == []

    def test_incident_foreign_keys(self, graph):
        assert len(graph.incident_foreign_keys("Assignment")) == 2
        assert len(graph.incident_foreign_keys("Department")) == 1

    def test_is_connected(self, graph):
        assert graph.is_connected(["Department", "Project"])
        assert graph.is_connected([])

    def test_distance(self, graph):
        assert graph.distance("Department", "Department") == 0
        assert graph.distance("Department", "Employee") == 1
        assert graph.distance("Department", "Project") == 3


class TestJoinTrees:
    def test_single_table_yields_empty_tree(self, graph):
        trees = graph.join_trees(["Employee"])
        assert () in trees

    def test_two_adjacent_tables(self, graph):
        trees = graph.join_trees(["Employee", "Department"], max_tables=2)
        assert len(trees) == 1
        assert len(trees[0]) == 1
        assert set(trees[0][0].tables()) == {"Employee", "Department"}

    def test_distant_tables_route_through_intermediates(self, graph):
        trees = graph.join_trees(["Department", "Project"])
        assert trees, "expected at least one connecting tree"
        smallest = trees[0]
        tables = SchemaGraph.tree_tables(smallest)
        assert {"Department", "Employee", "Assignment", "Project"} == tables
        assert len(smallest) == 3

    def test_max_tables_bound_excludes_long_paths(self, graph):
        trees = graph.join_trees(["Department", "Project"], max_tables=3)
        assert trees == []

    def test_max_trees_limits_output(self, graph):
        unlimited = graph.join_trees(["Employee", "Assignment"], max_tables=4)
        limited = graph.join_trees(["Employee", "Assignment"], max_tables=4, max_trees=1)
        assert len(limited) == 1
        assert len(unlimited) >= len(limited)

    def test_trees_are_sorted_smallest_first(self, graph):
        trees = graph.join_trees(["Employee", "Assignment"], max_tables=4)
        sizes = [len(tree) for tree in trees]
        assert sizes == sorted(sizes)

    def test_unknown_required_table_raises(self, graph):
        with pytest.raises(SchemaError):
            graph.join_trees(["Ghost"])

    def test_empty_requirement_returns_empty_tree(self, graph):
        assert graph.join_trees([]) == [()]

    def test_every_tree_is_acyclic_and_spans_required(self, graph):
        required = {"Department", "Assignment"}
        for tree in graph.join_trees(required, max_tables=4):
            tables = SchemaGraph.tree_tables(tree)
            assert required <= tables
            # A tree over n tables has n - 1 edges.
            assert len(tree) == len(tables) - 1

    def test_disconnected_tables_give_no_tree(self, company_db):
        from repro.dataset.schema import Column
        from repro.dataset.types import DataType

        company_db.create_table("Island", [Column("x", DataType.INT)])
        graph = SchemaGraph(company_db)
        assert graph.join_trees(["Island", "Employee"]) == []
        assert not graph.is_connected(["Island", "Employee"])
        assert graph.distance("Island", "Employee") is None


class TestJoinTreeMemo:
    @pytest.mark.parametrize("name", sorted(_SCHEMAS))
    def test_memoized_answers_equal_a_fresh_enumeration(self, name):
        """One graph answers every required-table set of up to three
        tables under every bound, twice; a fresh graph per bound, which
        sees each question once, enumerates every answer afresh."""
        database = _SCHEMAS[name]()
        memoized = SchemaGraph(database)
        fresh = {bounds: SchemaGraph(database) for bounds in _BOUNDS}
        tables = sorted(database.table_names)
        trees_found = 0
        for size in (1, 2, 3):
            for required in itertools.combinations(tables, size):
                for bounds in _BOUNDS:
                    expected = fresh[bounds].join_trees(required, *bounds)
                    assert memoized.join_trees(required, *bounds) == expected
                    assert memoized.join_trees(reversed(required), *bounds) == expected
                    trees_found += len(expected)
        assert trees_found

    def test_mutating_an_answer_does_not_change_the_next(self, graph):
        first = graph.join_trees(["Employee", "Assignment"], max_tables=4)
        expected = list(first)
        first.clear()
        assert graph.join_trees(["Employee", "Assignment"], max_tables=4) == expected
        assert graph.join_trees([]) == [()]
        graph.join_trees([]).append(("not a tree",))
        assert graph.join_trees([]) == [()]

    def test_unknown_table_raises_on_every_call(self, graph):
        for __ in range(3):
            with pytest.raises(SchemaError, match="Ghost"):
                graph.join_trees(["Employee", "Ghost"])

    def test_memo_stops_growing_at_its_bound(self, graph, company_db, monkeypatch):
        monkeypatch.setattr(schema_graph, "JOIN_TREE_MEMO_SIZE", 2)
        tables = sorted(company_db.table_names)
        for table in tables:
            assert graph.join_trees([table], max_tables=1) == [()]
        assert len(tables) > 2 and len(graph._join_trees) == 2
        # Answers past the bound are still right, computed every time.
        trees = graph.join_trees(["Department", "Project"])
        assert graph.join_trees(["Department", "Project"]) == trees
        assert len(trees[0]) == 3 and len(graph._join_trees) == 2

    def test_a_persisted_bundle_loads_and_discovers_the_same(
        self, company_db, tmp_path
    ):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        built = ArtifactStore(persist_dir=tmp_path).get(company_db)
        expected = Prism.from_artifacts(built).discover(spec).sql()
        assert expected
        restarted = ArtifactStore(persist_dir=tmp_path)
        loaded = restarted.get(company_db)
        assert restarted.stats.disk_loads == 1
        assert f".f{artifacts.ARTIFACT_FORMAT}." in built.key.filename()
        for __ in range(2):
            assert Prism.from_artifacts(loaded).discover(spec).sql() == expected
