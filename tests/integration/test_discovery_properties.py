"""Property-based tests of discovery invariants on synthetic databases.

The key soundness property of the whole system (the paper's problem
definition): every returned query's result must satisfy every constraint of
the spec.  We exercise it on randomly generated databases and randomly
chosen ground-truth rows, plus invariants of join-tree enumeration.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.sample import SampleConstraint
from repro.constraints.spec import MappingSpec
from repro.dataset.schema_graph import SchemaGraph
from repro.datasets import generate_synthetic_database
from repro.discovery import GenerationLimits, Prism
from repro.query.executor import Executor

_LIMITS = GenerationLimits(max_candidates=60, max_assignments=120,
                           max_trees_per_assignment=4)

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def synthetic_database(draw):
    num_tables = draw(st.integers(min_value=2, max_value=4))
    topology = draw(st.sampled_from(["chain", "star", "random"]))
    seed = draw(st.integers(min_value=0, max_value=50))
    return generate_synthetic_database(
        num_tables=num_tables,
        rows_per_table=40,
        extra_columns=1,
        topology=topology,
        seed=seed,
    )


class TestDiscoverySoundness:
    @_SETTINGS
    @given(synthetic_database(), st.integers(min_value=0, max_value=39))
    def test_every_returned_query_satisfies_the_sample(self, database, row_index):
        table = database.table("T0")
        row = table.rows[row_index % table.num_rows]
        label = row[table.column_position("label")]
        spec = MappingSpec(1)
        spec.add_sample(SampleConstraint.from_values([label]))

        engine = Prism(database, limits=_LIMITS, train_bayesian=False)
        result = engine.discover(spec, scheduler="filter", time_limit=30)
        assert result.num_queries >= 1
        executor = Executor(database)
        for query in result.queries:
            rows = executor.execute(query)
            assert spec.samples[0].satisfied_by_result(rows)

    @_SETTINGS
    @given(synthetic_database())
    def test_schedulers_agree_on_synthetic_databases(self, database):
        table = database.table(database.table_names[-1])
        row = table.rows[0]
        label = row[table.column_position("label")]
        measure = row[table.column_position("measure")]
        spec = MappingSpec(2)
        spec.add_sample(SampleConstraint.from_values([label, measure]))

        engine = Prism(database, limits=_LIMITS)
        sqls = {
            scheduler: sorted(
                engine.discover(spec, scheduler=scheduler, time_limit=30).sql()
            )
            for scheduler in ("filter", "bayesian", "optimal")
        }
        assert sqls["filter"] == sqls["bayesian"] == sqls["optimal"]

    @_SETTINGS
    @given(synthetic_database())
    def test_optimal_never_exceeds_filter_validations(self, database):
        table = database.table(database.table_names[-1])
        label = table.rows[0][table.column_position("label")]
        spec = MappingSpec(1)
        spec.add_sample(SampleConstraint.from_values([label]))
        engine = Prism(database, limits=_LIMITS, train_bayesian=False)
        filter_result = engine.discover(spec, scheduler="filter", time_limit=30)
        optimal_result = engine.discover(spec, scheduler="optimal", time_limit=30)
        assert optimal_result.stats.validations <= filter_result.stats.validations
        assert sorted(optimal_result.sql()) == sorted(filter_result.sql())


class TestJoinTreeProperties:
    @_SETTINGS
    @given(synthetic_database(), st.data())
    def test_join_trees_span_required_tables_without_cycles(self, database, data):
        graph = SchemaGraph(database)
        tables = data.draw(
            st.sets(
                st.sampled_from(database.table_names), min_size=1, max_size=3
            )
        )
        for tree in graph.join_trees(tables, max_tables=4, max_trees=20):
            spanned = SchemaGraph.tree_tables(tree, default=next(iter(tables)))
            assert set(tables) <= spanned
            assert len(tree) == len(spanned) - 1 or (not tree and len(spanned) == 1)

    @_SETTINGS
    @given(synthetic_database())
    def test_executor_join_matches_nested_loop_semantics(self, database):
        # Compare the executor's join result against a brute-force nested loop on
        # the first foreign key of the database.
        fk = database.foreign_keys[0]
        from repro.dataset.schema import ColumnRef
        from repro.query.pj_query import ProjectJoinQuery

        child = database.table(fk.child_table)
        parent = database.table(fk.parent_table)
        query = ProjectJoinQuery(
            (
                ColumnRef(fk.child_table, "label"),
                ColumnRef(fk.parent_table, "label"),
            ),
            (fk,),
        )
        expected = []
        child_pos = child.column_position(fk.child_column)
        parent_pos = parent.column_position(fk.parent_column)
        child_label = child.column_position("label")
        parent_label = parent.column_position("label")
        for child_row in child.rows:
            for parent_row in parent.rows:
                if (
                    child_row[child_pos] is not None
                    and child_row[child_pos] == parent_row[parent_pos]
                ):
                    expected.append(
                        (child_row[child_label], parent_row[parent_label])
                    )
        actual = Executor(database).execute(query)
        assert sorted(actual) == sorted(expected)
