"""Tests for batched existence probes (Executor.exists_batch)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.constraints.values import AnyValue, ExactValue, Predicate
from repro.dataset import Table
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query import kernels
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


def probe(query=JOIN_QUERY, predicates=None):
    return BatchProbe(query=query, cell_predicates=predicates)


class TestOutcomeEquivalence:
    def test_batch_matches_individual_exists(self, executor, company_db):
        probes = [
            probe(predicates={1: ExactValue("Alice")}),
            probe(predicates={1: ExactValue("Nobody")}),
            probe(predicates={0: ExactValue("Detroit")}),
            probe(
                query=OTHER_PROJECTIONS,
                predicates={
                    0: Predicate(">", 1_000_000), 1: Predicate(">", 100_000)
                },
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
            [probe(predicates={0: ExactValue("Nowhere")})]
        )
        assert outcomes == [False]
        assert executor.stats.joins_performed == 0
        # Pushdown decided it: the structure was not even planned.
        assert executor.stats.plan_cache_builds == 0

    def test_empty_batch(self, executor):
        assert executor.exists_batch([]) == []

    def test_mixed_structures_are_rejected(self, executor):
        single = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        with pytest.raises(QueryError, match="join structure"):
            executor.exists_batch([probe(), probe(query=single)])


class TestWorkSharing:
    def test_batch_joins_once_for_many_probes(
        self, executor, company_db, monkeypatch
    ):
        probes = [
            probe(predicates={1: ExactValue(n)})
            for n in ["Alice Chen", "Bob Diaz", "Carol Evans", "Nobody"]
        ]
        sweeps = []
        semijoin_exists = kernels.semijoin_exists

        def counting(*args):
            sweeps.append(args[0])
            return semijoin_exists(*args)

        monkeypatch.setattr(kernels, "semijoin_exists", counting)
        executor.exists_batch(probes)
        # "Nobody" empties during pushdown and never reaches the join,
        # exactly as on the per-candidate path.
        assert len(sweeps) == 3
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
        assert len(executor.cache.plans) == 1
        # ... and any later query over the same structure reuses it.
        executor.execute(OTHER_PROJECTIONS)
        assert executor.stats.plan_cache_hits == 1
        assert executor.stats.plan_cache_builds == 1

    def test_batch_shares_pushdown_scans_across_probes(
        self, executor, monkeypatch
    ):
        scans = Counter()
        select_rows = Table.select_rows

        def counting_select_rows(table, name, constraint):
            scans[table.name, name] += 1
            return select_rows(table, name, constraint)

        monkeypatch.setattr(Table, "select_rows", counting_select_rows)
        probes = [
            BatchProbe(JOIN_QUERY, {0: ExactValue("Ann Arbor")}),
            BatchProbe(
                JOIN_QUERY, {0: ExactValue("Ann Arbor"), 1: AnyValue()}
            ),
        ]
        assert executor.exists_batch(probes) == [True, True]
        # Equal constraints share one scan of their column; an unshared
        # pushdown would scan Department.City twice.
        assert scans == {("Department", "City"): 1, ("Employee", "Name"): 1}
