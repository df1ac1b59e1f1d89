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

import pickle
import random

import numpy as np
import pytest

from repro.constraints.parser import parse_value_constraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex
from repro.dataset.schema import Column
from repro.dataset.types import DataType
from repro.discovery.engine import Prism
from repro.service import artifacts
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
    """Term → column-set equality, for whole values and word tokens."""
    assert refreshed._exact == cold._exact
    assert refreshed._tokens == cold._tokens
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
        # floating-point rounding only (both are NaN over infinite cells).
        for field in ("mean", "stddev"):
            got_value, want_value = getattr(got, field), getattr(want, field)
            assert (got_value is None) == (want_value is None), (ref, field)
            if got_value is not None:
                assert got_value == pytest.approx(
                    want_value, rel=1e-12, abs=1e-9, nan_ok=True
                ), (ref, field)
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
    assert set(refreshed.join_models) == set(cold.join_models)
    for key, want in cold.join_models.items():
        got = refreshed.join_models[key]
        for field in ("join_probability", "expected_join_size",
                      "child_match_fraction", "parent_match_fraction",
                      "_join_size", "_matched_child_rows",
                      "_matched_parent_rows"):
            assert getattr(got, field) == getattr(want, field), (key, field)


def _assert_bundles_equivalent(refreshed, cold):
    _assert_indexes_equal(refreshed.index, cold.index)
    _assert_catalogs_equal(refreshed.catalog, cold.catalog)
    _assert_models_equal(refreshed.models, cold.models)
    assert refreshed.key == cold.key
    assert refreshed.catalog.built_from == cold.catalog.built_from


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
    def test_randomized_appends_match_cold_build(self, seed, monkeypatch):
        rng = random.Random(seed)
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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
    def test_discovery_results_are_bit_for_bit_identical(self, seed, monkeypatch):
        rng = random.Random(seed)
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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


class TestHugeIntegerCells:
    """An INT column holding ints beyond float range builds, answers and
    refreshes like any other: wherever a float stands in for a cell (the
    catalog's moments, the models' numeric multisets, histograms) such an
    int counts as an infinity."""

    HUGE = 10**400

    def _sql(self, bundle, text):
        spec = MappingSpec(1).add_sample_cells([parse_value_constraint(text)])
        return Prism.from_artifacts(bundle).discover(spec).sql()

    def test_build_discover_and_refresh(self, monkeypatch):
        database = Database("ledger")
        ledger = database.create_table("Ledger", [
            Column("Id", DataType.INT),
            Column("Amount", DataType.INT),
            Column("Memo", DataType.TEXT),
        ])
        ledger.insert_many([(1, 5, "small"), (2, self.HUGE, "huge"),
                            (3, None, "unknown")])
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
        built = store.get(database)
        assert self._sql(built, str(self.HUGE)) == [
            "SELECT Ledger.Amount FROM Ledger"
        ]

        ledger.insert((4, -self.HUGE, "owed"))
        refreshed = store.refresh(database)
        assert store.stats.refreshes == 1
        assert store.stats.rebuild_fallbacks == 0
        cold = ArtifactStore().build(database)
        _assert_bundles_equivalent(refreshed, cold)
        for text in (str(self.HUGE), f"-{self.HUGE}", "> 0", "< 0", "5",
                     f"[-{self.HUGE}, 0]"):
            assert self._sql(refreshed, text) == self._sql(cold, text), text
        assert self._sql(cold, f"-{self.HUGE}") == [
            "SELECT Ledger.Amount FROM Ledger"
        ]


class TestRefreshBookkeeping:
    def test_refresh_counters_and_key_progression(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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

    def test_refreshed_bundle_is_persisted(self, tmp_path, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore(persist_dir=tmp_path)
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

    def test_service_metrics_expose_refresh_counters(self, monkeypatch):
        from repro.api import DiscoveryRequest, DiscoveryService

        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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


def _cache_entries(bundle) -> dict:
    """What the bundle's executor cache holds, part by part."""
    cache = bundle.cache
    return {
        "plans": dict(cache.plans),
        "edge_kernels": dict(cache.edge_kernels),
        "bloom_masks": dict(cache.bloom_masks),
        "edge_selectivity": dict(cache.edge_selectivity),
        "structure_orders": dict(cache.structure_orders),
    }


def _warm(bundle) -> list:
    """Discover every spec on the bundle; returns the SQL, and leaves the
    bundle's executor cache filled."""
    answers = [Prism.from_artifacts(bundle).discover(spec).sql()
               for spec in _specs()]
    assert all(_cache_entries(bundle).values())
    return answers


class TestBundleCacheLifetime:
    """Each bundle carries one executor cache for its key: built lazily,
    dropped with the key, never persisted."""

    def test_refresh_returns_an_empty_cache_and_cold_answers(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
        bundle = store.get(database)
        _warm(bundle)
        _append_random_batch(random.Random(11), database, max_rows=6)
        refreshed = store.refresh(database)
        assert store.stats.refreshes == 1
        assert refreshed.cache is not bundle.cache
        assert refreshed.cache.key == database.artifact_key()
        assert not any(_cache_entries(refreshed).values())
        for spec in _specs():
            assert Prism.from_artifacts(refreshed).discover(spec).sql() == (
                Prism(database).discover(spec).sql()
            )

    def test_a_persisted_bundle_reloads_with_an_empty_cache(self, tmp_path):
        database = build_company_database()
        store = ArtifactStore(persist_dir=tmp_path)
        bundle = store.get(database)
        answers = _warm(bundle)
        # Write the warm bundle over its persisted file.
        with open(store.persisted_path(bundle.key), "wb") as handle:
            pickle.dump(bundle, handle)
        other = ArtifactStore(persist_dir=tmp_path)
        loaded = other.get(database)
        assert other.stats.disk_loads == 1
        assert loaded.cache.key == bundle.cache.key
        assert not any(_cache_entries(loaded).values())
        assert [Prism.from_artifacts(loaded).discover(spec).sql()
                for spec in _specs()] == answers


class TestRebuildFallbacks:
    def test_schema_change_falls_back(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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

    def test_drop_table_falls_back(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
        store.get(database)
        database.drop_table("Assignment")
        bundle = store.refresh(database)
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["schema_change"] == 1
        assert bundle.key == ArtifactKey.for_database(database)
        assert not bundle.catalog.has_column(
            type(bundle.catalog.columns()[0])("Assignment", "Hours")
        )

    def test_drop_and_recreate_same_name_falls_back(self, monkeypatch):
        """The delete/recreate path: same table name, different rows."""
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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

    def test_delta_overflow_falls_back(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.05)
        store = ArtifactStore()
        store.get(database)
        for i in range(5):  # 5 rows > 5% of the ~19-row company database
            database.table("Project").insert((f"P5{i}", f"Bulk {i}", 1.0))
        bundle = store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["delta_overflow"] == 1
        assert bundle.key == ArtifactKey.for_database(database)

    def test_disk_loaded_bundle_falls_back_then_reattaches(self, tmp_path, monkeypatch):
        database = build_company_database()
        ArtifactStore(persist_dir=tmp_path).get(database)
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore(persist_dir=tmp_path)
        loaded = store.get(database)  # private unpickled database copy
        assert store.stats.disk_loads == 1
        database.table("Project").insert(("P904", "Detached", 1.0))
        store.refresh(database)
        assert store.stats.refreshes == 0
        assert store.stats.rebuild_fallbacks == 1
        assert store.stats.fallback_reasons["detached_database"] == 1
        # The disk-loaded bundle's artifacts were never mutated: a reader
        # still holding it sees no term of the rows appended after it.
        _assert_indexes_equal(
            loaded.index, InvertedIndex.build(loaded.database)
        )
        assert not loaded.index.columns_containing("Detached")
        # The rebuild re-attached the cache to the live database, so the
        # next append upgrades incrementally again.
        database.table("Project").insert(("P905", "Reattached", 2.0))
        upgraded = store.refresh(database)
        assert store.stats.refreshes == 1
        assert upgraded.key == ArtifactKey.for_database(database)

    def test_unexpected_apply_error_evicts_bundle(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
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

    def test_bundle_of_another_format_is_rebuilt(self, tmp_path, monkeypatch):
        database = build_company_database()
        key = ArtifactStore(persist_dir=tmp_path).get(database).key
        assert f".f{artifacts.ARTIFACT_FORMAT}." in key.filename()
        # Code with another pickled layout never finds this bundle.
        monkeypatch.setattr(
            artifacts, "ARTIFACT_FORMAT", artifacts.ARTIFACT_FORMAT + 1
        )
        restarted = ArtifactStore(persist_dir=tmp_path)
        restarted.get(database)
        assert restarted.stats.builds == 1
        assert restarted.stats.disk_loads == 0
        monkeypatch.undo()
        reloaded = ArtifactStore(persist_dir=tmp_path)
        reloaded.get(database)
        assert reloaded.stats.disk_loads == 1
        assert reloaded.stats.builds == 0

    def test_fallback_serves_correct_results(self, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
        store.get(database)
        database.create_table("Audit", [Column("Entry", DataType.TEXT)])
        bundle = store.refresh(database)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Alice Chen"), None])
        result = Prism.from_artifacts(bundle).discover(spec)
        assert result.num_queries >= 1
