"""Golden refresh/rebuild-equivalence tests for incremental maintenance.

Following the equivalence-coverage argument of *Test Coverage for Network
Configurations* (PAPERS.md): an incremental update path is only
trustworthy when it is continuously proven equivalent to the
from-scratch path it replaces.  These tests append randomized batches to
a database, refresh the cached bundle via the delta path, and assert the
refreshed artifacts match a cold build of the grown database — exactly
for every integer/string statistic, to float equality for the running
numeric moments, and **bit-for-bit on discovery results**.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset.schema import Column
from repro.dataset.types import DataType
from repro.discovery.engine import Prism
from repro.service.artifacts import ArtifactKey, ArtifactStore
from tests.conftest import build_company_database

_FIRST = ["Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "Tony",
          "Radia", "Lynn", "Ken"]
_LAST = ["Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov", "Knuth",
         "Hoare", "Perlman", "Conway", "Thompson"]
_DEPARTMENTS = ["Engineering", "Marketing", "Research", "Sales"]
_CITIES = ["Ann Arbor", "Detroit", "Chicago", "Flint", "Lansing"]


def _append_random_batch(rng: random.Random, database, max_rows: int = 4) -> int:
    """Append a small random batch across random tables; returns rows added."""
    added = 0
    for _ in range(rng.randint(1, max_rows)):
        table_name = rng.choice(
            ["Department", "Employee", "Project", "Assignment"]
        )
        table = database.table(table_name)
        if table_name == "Department":
            table.insert((
                f"Dept{rng.randrange(10_000)}",
                rng.choice(_CITIES),
                float(rng.randrange(50, 2_000) * 1_000),
            ))
        elif table_name == "Employee":
            table.insert((
                1_000 + rng.randrange(1_000_000),
                f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
                rng.choice(_DEPARTMENTS),
                float(rng.randrange(40, 200) * 1_000),
                rng.randrange(21, 70),
            ))
        elif table_name == "Project":
            table.insert((
                f"P{rng.randrange(100_000)}",
                f"{rng.choice(_LAST)} initiative",
                float(rng.randrange(10, 900) * 1_000),
            ))
        else:
            table.insert((
                rng.randrange(1, 7),
                rng.choice(["P100", "P200", "P300"]),
                rng.randrange(1, 40),
            ))
        added += 1
    return added


def _assert_indexes_equal(refreshed, cold):
    """Term → posting-multiset equality (list order is never observed)."""
    for attribute in ("_exact", "_tokens"):
        got = {
            term: sorted((p.table, p.column, p.row_index) for p in postings)
            for term, postings in getattr(refreshed, attribute).items()
            if postings
        }
        want = {
            term: sorted((p.table, p.column, p.row_index) for p in postings)
            for term, postings in getattr(cold, attribute).items()
            if postings
        }
        assert got == want
    assert refreshed.indexed_cells == cold.indexed_cells
    assert refreshed.num_terms == cold.num_terms


def _assert_catalogs_equal(refreshed, cold):
    assert set(refreshed.columns()) == set(cold.columns())
    for ref in cold.columns():
        got, want = refreshed.stats(ref), cold.stats(ref)
        for field in ("data_type", "row_count", "null_count",
                      "distinct_count", "min_value", "max_value",
                      "max_text_length"):
            assert getattr(got, field) == getattr(want, field), (ref, field)
        # The running moments may differ from the cold two-pass by
        # floating-point rounding only.
        for field in ("mean", "stddev"):
            got_value, want_value = getattr(got, field), getattr(want, field)
            assert (got_value is None) == (want_value is None), (ref, field)
            if got_value is not None:
                assert got_value == pytest.approx(want_value, rel=1e-12,
                                                 abs=1e-9), (ref, field)
        # Sketches must survive the delta fold: HLL registers fold to
        # exactly the cold-rebuild state; Bloom bits do too whenever the
        # cold build sizes the filter the same way (sizing is fixed at
        # build time from the then-current distinct count, so a rebuild
        # over a grown column may legitimately pick a larger filter).
        got_sketches = refreshed.sketches(ref)
        want_sketches = cold.sketches(ref)
        assert (got_sketches is None) == (want_sketches is None), ref
        if got_sketches is not None:
            assert got_sketches.hll == want_sketches.hll, ref
            assert (got_sketches.bloom is None) == \
                (want_sketches.bloom is None), ref
            if (
                want_sketches.bloom is not None
                and got_sketches.bloom.num_bits == want_sketches.bloom.num_bits
            ):
                assert got_sketches.bloom == want_sketches.bloom, ref
            if (
                want_sketches.histogram is not None
                and got_sketches.histogram is not None
            ):
                assert got_sketches.histogram.total == \
                    want_sketches.histogram.total, ref


def _assert_models_equal(refreshed, cold):
    assert set(refreshed.relation_models) == set(cold.relation_models)
    for table_name, want in cold.relation_models.items():
        got = refreshed.relation_models[table_name]
        assert got.row_count == want.row_count
        for column_name, want_dist in want._distributions.items():
            got_dist = got._distributions[column_name]
            assert got_dist._frequencies == want_dist._frequencies, (
                table_name, column_name)
            assert got_dist._token_frequencies == want_dist._token_frequencies
            assert got_dist.row_count == want_dist.row_count
            assert got_dist.non_null_count == want_dist.non_null_count
            assert got_dist.null_fraction == want_dist.null_fraction
            if want_dist._numeric is None:
                assert got_dist._numeric is None
            else:
                # The multiset is what probabilities read; order differs.
                assert np.array_equal(np.sort(got_dist._numeric),
                                      np.sort(want_dist._numeric))
                assert np.array_equal(got_dist._histogram[0],
                                      want_dist._histogram[0])
                assert np.array_equal(got_dist._histogram[1],
                                      want_dist._histogram[1])
    assert set(refreshed.join_models) == set(cold.join_models)
    for key, want in cold.join_models.items():
        got = refreshed.join_models[key]
        for field in ("join_probability", "expected_join_size",
                      "child_match_fraction", "parent_match_fraction"):
            assert getattr(got, field) == getattr(want, field), (key, field)


def _assert_bundles_equivalent(refreshed, cold):
    _assert_indexes_equal(refreshed.index, cold.index)
    _assert_catalogs_equal(refreshed.catalog, cold.catalog)
    _assert_models_equal(refreshed.models, cold.models)
    assert refreshed.index.built_from == cold.index.built_from
    assert refreshed.catalog.built_from == cold.catalog.built_from
    assert refreshed.models.trained_on == cold.models.trained_on


def _specs():
    """Specs spanning single-table, join and metadata-free discovery."""
    by_name = MappingSpec(2)
    by_name.add_sample_cells([ExactValue("Alice Chen"), None])
    by_department = MappingSpec(2)
    by_department.add_sample_cells([ExactValue("Engineering"), None])
    join = MappingSpec(2)
    join.add_sample_cells([ExactValue("Alice Chen"), ExactValue("Ann Arbor")])
    return [by_name, by_department, join]


class TestRefreshEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_randomized_appends_match_cold_build(self, seed):
        rng = random.Random(seed)
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        # Several append → refresh cycles so deltas chain across marks.
        for _ in range(3):
            _append_random_batch(rng, database)
            refreshed = store.refresh(database)
        assert store.stats.refreshes == 3
        assert store.stats.rebuild_fallbacks == 0
        assert store.stats.delta_rows_applied > 0
        assert refreshed.key == ArtifactKey.for_database(database)

        cold = ArtifactStore().build(database)
        _assert_bundles_equivalent(refreshed, cold)

    @pytest.mark.parametrize("seed", [5, 31])
    def test_discovery_results_are_bit_for_bit_identical(self, seed):
        rng = random.Random(seed)
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        _append_random_batch(rng, database, max_rows=6)
        refreshed = store.refresh(database)
        assert store.stats.refreshes == 1
        cold = ArtifactStore().build(database)
        for spec in _specs():
            got = Prism.from_artifacts(refreshed).discover(spec)
            want = Prism.from_artifacts(cold).discover(spec)
            assert got.sql() == want.sql()
            assert got.num_queries == want.num_queries

    def test_refresh_of_untrained_store(self):
        database = build_company_database()
        store = ArtifactStore(train_bayesian=False, max_delta_fraction=0.9)
        store.get(database)
        database.table("Employee").insert(
            (42, "Grace Hopper", "Research", 130_000.0, 36)
        )
        refreshed = store.refresh(database)
        assert store.stats.refreshes == 1
        assert refreshed.models is None
        cold = ArtifactStore(train_bayesian=False).build(database)
        _assert_indexes_equal(refreshed.index, cold.index)
        _assert_catalogs_equal(refreshed.catalog, cold.catalog)


class TestRefreshBookkeeping:
    def test_refresh_counters_and_key_progression(self):
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        first = store.refresh(database)           # nothing cached: build
        assert store.stats.builds == 1
        again = store.refresh(database)           # unchanged: hit
        assert again is first
        assert store.stats.hits == 1
        database.table("Project").insert(("P900", "Skunkworks", 1_000.0))
        upgraded = store.refresh(database)
        assert store.stats.refreshes == 1
        assert store.stats.delta_rows_applied == 1
        assert store.stats.refreshes_by_database["company"] == 1
        assert upgraded.key != first.key
        snapshot = store.stats.as_dict()
        assert snapshot["refreshes"] == 1
        assert snapshot["delta_rows_applied"] == 1
        assert snapshot["rebuild_fallbacks"] == 0

    def test_refreshed_bundle_is_persisted(self, tmp_path):
        database = build_company_database()
        store = ArtifactStore(persist_dir=tmp_path, max_delta_fraction=0.9)
        store.get(database)
        database.table("Project").insert(("P901", "Moonshot", 2_000.0))
        upgraded = store.refresh(database)
        assert store.stats.refreshes == 1
        # A cold store warm-starts from the refreshed bundle on disk.
        other = ArtifactStore(persist_dir=tmp_path)
        warm = other.get(database)
        assert other.stats.disk_loads == 1
        assert other.stats.builds == 0
        assert warm.key == upgraded.key

    def test_service_metrics_expose_refresh_counters(self):
        from repro.api import DiscoveryRequest, DiscoveryService

        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Alice Chen"), None])
        with DiscoveryService(
            databases={"company": database},
            store=store,
            workers=1,
            refresh_artifacts=True,
        ) as service:
            assert service.submit(DiscoveryRequest("company", spec)).result().ok
            database.table("Project").insert(("P902", "Iceberg", 500.0))
            assert service.submit(DiscoveryRequest("company", spec)).result().ok
            metrics = service.metrics()
        assert metrics.artifacts["refreshes"] == 1
        assert metrics.artifacts["delta_rows_applied"] == 1
        assert metrics.artifacts["rebuild_fallbacks"] == 0


class TestRebuildFallbacks:
    def test_schema_change_falls_back(self):
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        database.create_table("Audit", [Column("Entry", DataType.TEXT)])
        database.table("Audit").insert(("created",))
        bundle = store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["schema_change"] == 1
        assert store.stats.builds == 2
        assert bundle.key == ArtifactKey.for_database(database)
        _assert_bundles_equivalent(bundle, ArtifactStore().build(database))

    def test_drop_table_falls_back(self):
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        database.drop_table("Assignment")
        bundle = store.refresh(database)
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["schema_change"] == 1
        assert bundle.key == ArtifactKey.for_database(database)
        assert not bundle.catalog.has_column(
            type(bundle.catalog.columns()[0])("Assignment", "Hours")
        )

    def test_drop_and_recreate_same_name_falls_back(self):
        """The delete/recreate path: same table name, different rows."""
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        database.drop_table("Project")
        database.create_table("Project", [
            Column("Code", DataType.TEXT, primary_key=True),
            Column("Title", DataType.TEXT),
            Column("Budget", DataType.DECIMAL),
        ])
        database.table("Project").insert(("P1", "Fresh start", 10.0))
        bundle = store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.fallback_reasons["schema_change"] == 1
        _assert_bundles_equivalent(bundle, ArtifactStore().build(database))

    def test_delta_overflow_falls_back(self):
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

    def test_disk_loaded_bundle_falls_back_then_reattaches(self, tmp_path):
        database = build_company_database()
        ArtifactStore(persist_dir=tmp_path).get(database)
        store = ArtifactStore(persist_dir=tmp_path, max_delta_fraction=0.9)
        loaded = store.get(database)  # private unpickled database copy
        assert store.stats.disk_loads == 1
        frozen_rows = loaded.database.table("Project").num_rows
        database.table("Project").insert(("P904", "Detached", 1.0))
        store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["detached_database"] == 1
        # The disk-loaded bundle's artifacts were never mutated: a reader
        # still holding it sees no posting past its own database's rows.
        assert not any(
            posting.table == "Project" and posting.row_index >= frozen_rows
            for postings in loaded.index._exact.values()
            for posting in postings
        )
        # The rebuild re-attached the cache to the live database, so the
        # next append upgrades incrementally again.
        database.table("Project").insert(("P905", "Reattached", 2.0))
        upgraded = store.refresh(database)
        assert store.stats.refreshes == 1
        assert upgraded.key == ArtifactKey.for_database(database)

    def test_unexpected_apply_error_evicts_bundle(self, monkeypatch):
        from repro.dataset.index import InvertedIndex

        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        database.table("Project").insert(("P906", "Boom", 3.0))

        def interrupted(self, *args, **kwargs):
            raise RuntimeError("interrupted mid-apply")

        monkeypatch.setattr(InvertedIndex, "apply_delta", interrupted)
        with pytest.raises(RuntimeError):
            store.refresh(database)
        # The possibly half-upgraded bundle must not stay cached under its
        # old marks — a later refresh would fold the same delta in twice.
        assert store.cached_bundle("company") is None
        monkeypatch.undo()
        rebuilt = store.refresh(database)
        assert rebuilt.key == ArtifactKey.for_database(database)
        _assert_bundles_equivalent(rebuilt, ArtifactStore().build(database))

    def test_bundle_without_marks_falls_back(self):
        from dataclasses import replace

        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        bundle = store.get(database)
        store._bundles["company"] = replace(bundle, marks=None)
        database.table("Project").insert(("P903", "Legacy", 1.0))
        store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.fallback_reasons["unsupported_bundle"] == 1

    def test_fallback_serves_correct_results(self):
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
        store.get(database)
        database.create_table("Audit", [Column("Entry", DataType.TEXT)])
        bundle = store.refresh(database)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Alice Chen"), None])
        result = Prism.from_artifacts(bundle).discover(spec)
        assert result.num_queries >= 1
