"""Micro-benchmarks of the substrate the discovery pipeline sits on.

These are not experiments from the paper; they track the cost of the
preprocessing steps the paper assumes are cheap (inverted index, metadata
catalog, Bayesian training) and of the core runtime operations (join
execution, join-tree enumeration, filter decomposition).
"""

from __future__ import annotations

from repro.bayesian.training import train_models
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.index import InvertedIndex
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.dataset.schema_graph import SchemaGraph
from repro.discovery.filters import build_filters
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery


def test_micro_inverted_index_build(benchmark, mondial_db):
    index = benchmark(InvertedIndex.build, mondial_db)
    assert index.indexed_cells > 0


def test_micro_metadata_catalog_build(benchmark, mondial_db):
    catalog = benchmark(MetadataCatalog.build, mondial_db)
    assert len(catalog) > 0


def test_micro_bayesian_training(benchmark, mondial_db):
    models = benchmark(train_models, mondial_db)
    assert models.num_relation_models == len(mondial_db.table_names)


def test_micro_index_lookup(benchmark, mondial_db):
    index = InvertedIndex.build(mondial_db)
    columns = benchmark(index.columns_containing, "Lake Tahoe")
    assert ColumnRef("Lake", "Name") in columns


def test_micro_join_tree_enumeration(benchmark, mondial_db):
    graph = SchemaGraph(mondial_db)
    trees = benchmark(
        graph.join_trees, {"Lake", "Province"}, 4, 50
    )
    assert trees


def test_micro_two_table_join_execution(benchmark, mondial_db):
    executor = Executor(mondial_db)
    query = ProjectJoinQuery(
        (
            ColumnRef("geo_lake", "Province"),
            ColumnRef("Lake", "Name"),
            ColumnRef("Lake", "Area"),
        ),
        (ForeignKey("geo_lake", "Lake", "Lake", "Name"),),
    )
    rows = benchmark(executor.execute, query)
    assert rows


def test_micro_filtered_existence_probe(benchmark, mondial_db):
    executor = Executor(mondial_db)
    query = ProjectJoinQuery(
        (ColumnRef("geo_lake", "Province"), ColumnRef("Lake", "Name")),
        (ForeignKey("geo_lake", "Lake", "Lake", "Name"),),
    )
    predicates = {0: OneOf(["California", "Nevada"]),
                  1: ExactValue("Lake Tahoe")}
    exists = benchmark(executor.exists, query, predicates)
    assert exists


def test_micro_filter_decomposition(benchmark, engine):
    spec = MappingSpec(3)
    spec.add_sample_cells(
        [OneOf(["California", "Nevada"]), ExactValue("Lake Tahoe"), None]
    )
    candidates = engine.candidate_queries(spec)

    filter_set = benchmark(build_filters, spec, candidates)
    assert filter_set.num_filters > 0


def test_micro_full_discovery_round(benchmark, engine):
    spec = MappingSpec(2)
    spec.add_sample_cells([ExactValue("Crater Lake"), ExactValue("Oregon")])

    result = benchmark(engine.discover, spec)
    assert result.num_queries >= 1
