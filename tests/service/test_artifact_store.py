"""Unit tests for the preprocessing-artifact store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.discovery.engine import Prism
from repro.service.artifacts import ArtifactKey, ArtifactStore

_SRC = Path(__file__).resolve().parents[2] / "src"
# Load the bundled databases, then report what building their bundles
# imported.
_BUILD_IMPORTS = """
import json
import sys

import repro.api
from repro.datasets import load_imdb, load_mondial, load_nba
from repro.service.artifacts import ArtifactStore

databases = [load() for load in (load_mondial, load_imdb, load_nba)]
before = set(sys.modules)
store = ArtifactStore()
for database in databases:
    store.get(database)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _company_spec() -> MappingSpec:
    spec = MappingSpec(2)
    spec.add_sample_cells([ExactValue("Alice Chen"), ExactValue("Engineering")])
    return spec


class TestArtifactKey:
    def test_key_reflects_database_state(self, company_db):
        key = ArtifactKey.for_database(company_db)
        assert key.database == "company"
        assert key == ArtifactKey.for_database(company_db)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Research", 99_000.0, 31)
        )
        assert key != ArtifactKey.for_database(company_db)

    def test_filename_is_filesystem_safe(self):
        key = ArtifactKey("weird/db name", 3, (3, 2, 10))
        name = key.filename()
        assert "/" not in name and " " not in name
        assert name.endswith(".artifacts.pkl")


class TestArtifactStore:
    def test_builds_once_then_hits(self, company_db):
        store = ArtifactStore()
        first = store.get(company_db)
        second = store.get(company_db)
        assert first is second
        assert store.stats.builds == 1
        assert store.stats.hits == 1
        assert store.stats.builds_by_database["company"] == 1

    def test_bundle_contents_are_complete(self, company_db):
        store = ArtifactStore()
        bundle = store.get(company_db)
        assert bundle.database is company_db
        assert bundle.key == ArtifactKey.for_database(company_db)
        assert bundle.catalog.built_from == company_db.artifact_key()
        assert bundle.models is not None

    def test_engine_over_bundle_discovers(self, company_db):
        store = ArtifactStore()
        engine = Prism.from_artifacts(store.get(company_db))
        result = engine.discover(_company_spec())
        assert result.num_queries >= 1
        # The engine shares the bundle's artifacts instead of rebuilding.
        assert engine.index is store.get(company_db).index

    def test_invalidation_rebuilds_on_new_data_version(self, company_db):
        store = ArtifactStore()
        stale = store.get(company_db)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Research", 99_000.0, 31)
        )
        fresh = store.get(company_db)
        assert fresh is not stale
        assert fresh.key != stale.key
        assert store.stats.builds == 2
        assert store.stats.invalidations == 1
        # The fresh bundle indexes the inserted row; the stale one did not.
        assert fresh.index.columns_containing("Grace Ito")
        assert not stale.index.columns_containing("Grace Ito")

    def test_invalidation_on_schema_change(self, company_db):
        store = ArtifactStore()
        store.get(company_db)
        company_db.drop_table("Assignment")
        fresh = store.get(company_db)
        assert store.stats.builds == 2
        assert "Assignment" not in fresh.schema_graph.tables

    def test_concurrent_gets_build_exactly_once(self, company_db):
        store = ArtifactStore()
        barrier = threading.Barrier(8)
        bundles = []
        errors = []

        def worker():
            try:
                barrier.wait()
                bundles.append(store.get(company_db))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats.builds == 1
        assert len({id(bundle) for bundle in bundles}) == 1

    def test_evict_drops_memory_only(self, company_db):
        store = ArtifactStore()
        store.get(company_db)
        assert store.evict("company")
        assert not store.evict("company")
        store.get(company_db)
        assert store.stats.builds == 2


class TestPersistence:
    def test_restart_warm_starts_from_disk(self, company_db, tmp_path):
        first_store = ArtifactStore(persist_dir=tmp_path)
        built = first_store.get(company_db)
        path = first_store.persisted_path(built.key)
        assert path is not None and path.exists()
        assert first_store.stats.disk_writes == 1

        # A second store simulates a process restart: same directory, no
        # in-memory state.  It must load instead of rebuilding.
        second_store = ArtifactStore(persist_dir=tmp_path)
        loaded = second_store.get(company_db)
        assert second_store.stats.builds == 0
        assert second_store.stats.disk_loads == 1
        assert loaded.key == built.key
        # Loaded bundles own a private database copy, isolated from the
        # caller's objects, and still answer discovery correctly.
        assert loaded.database is not company_db
        result = Prism.from_artifacts(loaded).discover(_company_spec())
        assert result.num_queries >= 1

    def test_stale_persisted_bundle_is_not_loaded(self, company_db, tmp_path):
        store = ArtifactStore(persist_dir=tmp_path)
        store.get(company_db)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Research", 99_000.0, 31)
        )
        restarted = ArtifactStore(persist_dir=tmp_path)
        restarted.get(company_db)
        # The old file's key no longer matches, so a rebuild happened.
        assert restarted.stats.disk_loads == 0
        assert restarted.stats.builds == 1

    def test_corrupt_persisted_bundle_degrades_to_rebuild(
        self, company_db, tmp_path
    ):
        store = ArtifactStore(persist_dir=tmp_path)
        key = store.get(company_db).key
        store.persisted_path(key).write_bytes(b"not a pickle")
        restarted = ArtifactStore(persist_dir=tmp_path)
        bundle = restarted.get(company_db)
        # The bad file is a cache miss, not a poisoned database: the store
        # rebuilds, counts the failure, and heals the file on disk.
        assert bundle.key == key
        assert restarted.stats.disk_errors == 1
        assert restarted.stats.builds == 1
        assert restarted.stats.disk_writes == 1
        healed = ArtifactStore(persist_dir=tmp_path)
        healed.get(company_db)
        assert healed.stats.disk_loads == 1
        assert healed.stats.builds == 0

    def test_unwritable_persist_dir_still_serves(self, company_db, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where a directory must go", encoding="utf-8")
        store = ArtifactStore(persist_dir=blocked / "nested")
        bundle = store.get(company_db)
        assert bundle.key.database == "company"
        assert store.stats.disk_errors == 1
        assert store.stats.disk_writes == 0

    def test_no_persist_dir_means_no_files(self, company_db):
        store = ArtifactStore()
        bundle = store.get(company_db)
        assert store.persisted_path(bundle.key) is None
        assert store.stats.disk_writes == 0


def test_building_bundles_imports_nothing():
    """A service builds bundles and warms its process shards after it
    forks them, so every module the build imports lazily is imported
    once per shard (numpy.ma, through np.unique, took 7-18 ms)."""
    done = subprocess.run(
        [sys.executable, "-c", _BUILD_IMPORTS],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
