"""Tests for batched existence probes (Executor.exists_batch)."""

from __future__ import annotations

import pytest

from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery

EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")

JOIN_QUERY = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)
OTHER_PROJECTIONS = ProjectJoinQuery(
    (ColumnRef("Department", "Budget"), ColumnRef("Employee", "Salary")),
    (EMP_DEPT,),
)


@pytest.fixture()
def executor(company_db):
    return Executor(company_db)


def probe(query=JOIN_QUERY, predicates=None, key=None):
    return BatchProbe(query=query, cell_predicates=predicates, cache_key=key)


class TestOutcomeEquivalence:
    def test_batch_matches_individual_exists(self, executor, company_db):
        probes = [
            probe(predicates={1: lambda v: "Alice" in v}),
            probe(predicates={1: lambda v: v == "Nobody"}),
            probe(predicates={0: lambda v: v == "Detroit"}),
            probe(
                query=OTHER_PROJECTIONS,
                predicates={0: lambda v: v > 1_000_000, 1: lambda v: v > 100_000},
            ),
            probe(),
        ]
        outcomes = executor.exists_batch(probes)
        reference = Executor(company_db)
        expected = [
            reference.exists(p.query, cell_predicates=p.cell_predicates)
            for p in probes
        ]
        assert outcomes == expected == [True, False, True, True, True]

    def test_empty_pushdown_probe_never_joins(self, executor):
        outcomes = executor.exists_batch(
            [probe(predicates={0: lambda v: False})]
        )
        assert outcomes == [False]
        assert executor.stats.joins_performed == 0
        assert executor.stats.batch_executions == 0

    def test_empty_batch(self, executor):
        assert executor.exists_batch([]) == []

    def test_mixed_structures_are_rejected(self, executor):
        single = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        with pytest.raises(QueryError, match="join structure"):
            executor.exists_batch([probe(), probe(query=single)])


class TestWorkSharing:
    def test_batch_joins_once_for_many_probes(self, executor, company_db):
        probes = [
            probe(predicates={1: (lambda name: lambda v: v == name)(n)})
            for n in ["Alice Chen", "Bob Diaz", "Carol Evans", "Nobody"]
        ]
        executor.exists_batch(probes)
        assert executor.stats.batch_executions == 1
        # "Nobody" empties during pushdown and never reaches the join,
        # exactly as on the per-candidate path.
        assert executor.stats.batched_probes == 3
        assert executor.stats.joins_performed == 1

        per_candidate = Executor(company_db)
        for p in probes:
            per_candidate.exists(p.query, cell_predicates=p.cell_predicates)
        assert per_candidate.stats.joins_performed == 3

    def test_plan_is_shared_across_differing_projections(self, executor):
        executor.exists_batch(
            [probe(), probe(query=OTHER_PROJECTIONS)]
        )
        # One lowered plan serves the whole batch ...
        assert executor.stats.plan_cache_builds == 1
        assert executor.plan_cache_size == 1
        # ... and any later query over the same structure reuses it.
        executor.execute(OTHER_PROJECTIONS)
        assert executor.stats.plan_cache_hits == 1
        assert executor.stats.plan_cache_builds == 1

    def test_batch_shares_pushdown_scans_across_probes(self, executor):
        calls = {"count": 0}

        def city_is_ann_arbor(value):
            calls["count"] += 1
            return value == "Ann Arbor"

        probes = [
            BatchProbe(
                JOIN_QUERY,
                {0: city_is_ann_arbor},
                predicate_tags={0: "city=AnnArbor"},
            ),
            BatchProbe(
                JOIN_QUERY,
                {0: city_is_ann_arbor, 1: lambda v: True},
                predicate_tags={0: "city=AnnArbor"},
            ),
        ]
        assert executor.exists_batch(probes) == [True, True]
        # Department.City is dictionary-encoded with 3 distinct values;
        # an unshared pushdown would evaluate the predicate 6 times.
        assert calls["count"] == 3


class TestMemoInteraction:
    def test_batch_memoizes_every_probe(self, executor):
        probes = [
            probe(predicates={1: lambda v: "Alice" in v}, key=("p", 1)),
            probe(predicates={1: lambda v: v == "Nobody"}, key=("p", 2)),
        ]
        executor.exists_batch(probes)
        assert executor.stats.exists_cache_misses == 2
        assert executor.exists_memo_size == 2
        # Every outcome — including the batched peer's — now hits.
        assert executor.exists(
            JOIN_QUERY, {1: lambda v: "Alice" in v}, cache_key=("p", 1)
        )
        assert not executor.exists(
            JOIN_QUERY, {1: lambda v: v == "Nobody"}, cache_key=("p", 2)
        )
        assert executor.stats.exists_cache_hits == 2

    def test_batch_resolves_memo_hits_without_executing(self, executor):
        executor.exists(JOIN_QUERY, cache_key=("warm",))
        executed = executor.stats.queries_executed
        outcomes = executor.exists_batch([probe(key=("warm",))])
        assert outcomes == [True]
        assert executor.stats.queries_executed == executed
        assert executor.stats.exists_cache_hits == 1
