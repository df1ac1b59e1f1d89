"""Shared, persistable preprocessing-artifact bundles.

The paper trains its models and builds its indexes "a priori for the
source database" (§2.3) — preprocessing is a long-lived, per-database
activity, while each interactive discovery round is cheap.  This module
makes that split explicit:

* :class:`ArtifactBundle` — one immutable set of preprocessing artifacts
  (inverted index, metadata catalog, schema graph, trained Bayesian
  models) for one database state, plus one derived
  :class:`~repro.query.executor.ExecutorCache` that fills lazily;
* :class:`ArtifactKey` — the bundle's identity:
  ``(database, schema_version, data_version)``.  Any schema or data change
  yields a new key, so stale bundles are never served; the persisted file
  name also carries :data:`ARTIFACT_FORMAT`, so a bundle pickled by code
  with another layout is never loaded;
* :class:`ArtifactStore` — a thread-safe build-once cache of bundles,
  optionally persisted to disk so process restarts and sibling processes
  warm-start instead of re-preprocessing.

Bundles are read-only to every consumer
(:class:`~repro.discovery.engine.Prism` engines, the
:class:`~repro.api.DiscoveryService` workers): consumers layer
their own mutable state (counters, probe outcomes) on top.  The one
writer of artifact state is :meth:`ArtifactStore.refresh`, which —
under the per-database build lock — upgrades a bundle to a newer
database state by folding the append delta into its artifacts in place
instead of rebuilding them (see ``docs/incremental.md``).  Two
exceptions are derived and grow only, publishing each entry once:

* the schema graph memoizes the join trees consumers ask it for,
  answers that no append can change;
* the bundle's ``cache`` holds what every engine's executor derives
  from the bundle's key — lowered plans, edge kernels and the planner's
  memos — so rounds after the first stop rebuilding them.  Every bundle the store builds, refreshes or loads
  starts with an empty cache, and a pickled bundle holds none of its
  entries.
"""

from __future__ import annotations

import pickle
import re
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from repro.bayesian.training import BayesianModelSet, train_models
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex
from repro.dataset.schema_graph import SchemaGraph
from repro.errors import ArtifactError, ReproError
from repro.query.executor import ExecutorCache

__all__ = [
    "ARTIFACT_FORMAT",
    "MAX_DELTA_FRACTION",
    "ArtifactKey",
    "ArtifactBundle",
    "ArtifactStore",
    "ArtifactStoreStats",
]

#: Layout version of persisted bundles, part of every bundle's file name.
#: Bump it whenever a pickled class changes shape: bundles written under
#: another number are then never found, and the store rebuilds them.
ARTIFACT_FORMAT = 8

#: Largest append delta :meth:`ArtifactStore.refresh` folds into a bundle
#: in place, as a fraction of the bundle's rows.  A larger delta falls
#: back to a full rebuild: at that size a rebuild is competitive, and it
#: resets any floating-point drift accumulated in the catalog's running
#: moments.
MAX_DELTA_FRACTION = 0.25

_PICKLE_PROTOCOL = 4
_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one preprocessing bundle.

    Attributes:
        database: the source database's name.
        schema_version: the database's schema version counter.
        data_version: the database's cheap data-change token.
    """

    database: str
    schema_version: int
    data_version: tuple

    @classmethod
    def for_database(cls, database: Database) -> "ArtifactKey":
        """The key describing ``database``'s current state."""
        return cls(*database.artifact_key())

    def filename(self) -> str:
        """A filesystem-safe file name for this key's persisted bundle,
        stamped with :data:`ARTIFACT_FORMAT`."""
        safe_name = _UNSAFE_FILENAME.sub("_", self.database)
        data_token = "-".join(str(part) for part in self.data_version)
        return (
            f"{safe_name}.s{self.schema_version}.d{data_token}"
            f".f{ARTIFACT_FORMAT}.artifacts.pkl"
        )


@dataclass(frozen=True)
class ArtifactBundle:
    """One database's full preprocessing output, immutable once built.

    The bundle owns the database instance it was built from (for bundles
    loaded from disk that is a private unpickled copy, fully isolated from
    the caller's objects), so serving from a bundle never races with
    mutations of the database the caller passed in.

    ``marks`` records one storage :class:`~repro.storage.TableMark` per
    table, captured at build time; :meth:`ArtifactStore.refresh` compares
    them against the live database to derive the append delta that
    upgrades this bundle in place instead of rebuilding it.

    ``cache`` is the executor cache of ``key``, shared by every
    :meth:`~repro.discovery.engine.Prism.from_artifacts` engine over the
    bundle.  It is not a constructor argument: every new bundle,
    ``dataclasses.replace`` copies included, starts with an empty one.
    """

    key: ArtifactKey
    database: Database
    index: InvertedIndex
    catalog: MetadataCatalog
    schema_graph: SchemaGraph
    models: BayesianModelSet
    marks: dict
    cache: ExecutorCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = self.key
        object.__setattr__(self, "cache", ExecutorCache(
            (key.database, key.schema_version, key.data_version)
        ))


@dataclass
class ArtifactStoreStats:
    """Counters describing how the store satisfied its requests.

    The refresh counters describe the incremental-maintenance path:
    ``refreshes`` counts bundles upgraded in place by folding append
    deltas, ``delta_rows_applied`` the total rows folded that way, and
    ``rebuild_fallbacks`` the :meth:`ArtifactStore.refresh` calls that
    had to fall back to a full rebuild, broken down by cause in
    ``fallback_reasons`` (see ``docs/incremental.md``).
    """

    hits: int = 0
    builds: int = 0
    disk_loads: int = 0
    disk_writes: int = 0
    disk_errors: int = 0
    invalidations: int = 0
    refreshes: int = 0
    delta_rows_applied: int = 0
    rebuild_fallbacks: int = 0
    hits_by_database: Counter = field(default_factory=Counter)
    builds_by_database: Counter = field(default_factory=Counter)
    refreshes_by_database: Counter = field(default_factory=Counter)
    fallback_reasons: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        """Plain-dict snapshot used by service metrics and reports."""
        return {
            "hits": self.hits,
            "builds": self.builds,
            "disk_loads": self.disk_loads,
            "disk_writes": self.disk_writes,
            "disk_errors": self.disk_errors,
            "invalidations": self.invalidations,
            "refreshes": self.refreshes,
            "delta_rows_applied": self.delta_rows_applied,
            "rebuild_fallbacks": self.rebuild_fallbacks,
            "hits_by_database": dict(self.hits_by_database),
            "builds_by_database": dict(self.builds_by_database),
            "refreshes_by_database": dict(self.refreshes_by_database),
            "fallback_reasons": dict(self.fallback_reasons),
        }


class ArtifactStore:
    """Builds, caches and optionally disk-persists preprocessing bundles.

    One store serves any number of concurrent sessions: per-database build
    locks guarantee each distinct ``(database, schema_version,
    data_version)`` state is preprocessed exactly once no matter how many
    requests race for it, and every later request is a cache hit.  With a
    ``persist_dir``, freshly built bundles are pickled to disk and a new
    process (or a restart) warm-starts by loading them instead of
    rebuilding.

    For databases that keep growing, :meth:`refresh` upgrades a cached
    bundle by folding the append delta into it instead of rebuilding —
    see ``docs/incremental.md``.

    Example:
        >>> from repro import ArtifactStore, Column, Database, DataType
        >>> db = Database("docs")
        >>> items = db.create_table("Item", [Column("Name", DataType.TEXT)])
        >>> items.insert_many([("Hammer",), ("Nail",), ("Saw",), ("Vase",)])
        4
        >>> store = ArtifactStore()
        >>> bundle = store.get(db)           # builds index/catalog/models
        >>> store.get(db) is bundle          # unchanged state: cache hit
        True
        >>> items.insert(("Bolt",))          # the append moves the key...
        >>> fresh = store.refresh(db)        # ...folded in incrementally
        >>> (store.stats.builds, store.stats.refreshes)
        (1, 1)
        >>> fresh.key == ArtifactKey.for_database(db)
        True
    """

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None):
        """Create a store.

        Args:
            persist_dir: directory for persisted bundles (created on first
                write).  ``None`` disables persistence.
        """
        self._persist_dir = Path(persist_dir) if persist_dir is not None else None
        self._bundles: dict[str, ArtifactBundle] = {}
        self._build_locks: dict[str, threading.Lock] = {}
        self._mutex = threading.Lock()
        self.stats = ArtifactStoreStats()

    @property
    def persist_dir(self) -> Optional[Path]:
        """The bundle persistence directory (``None`` when disabled).

        The process-shard executor reads this to point every worker
        process at the same warm-start directory as the parent store.
        """
        return self._persist_dir

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, database: Database) -> ArtifactBundle:
        """The current bundle for ``database``, building it if needed.

        Thread-safe: concurrent callers for the same database state block
        on one build and then all share the single resulting bundle.
        """
        return self._current_bundle(database, try_refresh=False)

    def refresh(self, database: Database) -> ArtifactBundle:
        """The current bundle for ``database``, upgraded incrementally.

        Like :meth:`get`, but when a cached bundle exists for an earlier
        state of the same schema, the append delta since that state is
        folded into the bundle's artifacts in place (index, catalog,
        schema-graph statistics, Bayesian sufficient statistics) instead
        of rebuilding them from scratch — typically an order of magnitude
        faster for small deltas (see ``benchmarks/test_bench_incremental.py``).

        The delta path falls back to a counted full rebuild
        (``stats.rebuild_fallbacks``, per-cause in
        ``stats.fallback_reasons``) when the change is not expressible as
        pure appends or would mutate shared state unsafely: a schema
        change, a dropped/recreated table, a non-append storage write, a
        delta larger than :data:`MAX_DELTA_FRACTION` of the bundle, or a
        bundle loaded from disk (whose database is a private copy
        detached from the live one).

        Concurrency: the upgrade runs under the same per-database build
        lock as :meth:`get`.  Artifacts are upgraded additively in place,
        so a reader holding the pre-refresh bundle may observe some of
        the appended rows mid-refresh — equivalent to the insert having
        become visible, never a torn structure.
        """
        return self._current_bundle(database, try_refresh=True)

    def _current_bundle(
        self, database: Database, try_refresh: bool
    ) -> ArtifactBundle:
        """The shared cache protocol behind :meth:`get` and :meth:`refresh`.

        Unlocked fast path on a key hit, then (under the per-database
        build lock) double-check, optionally attempt the incremental
        upgrade, and finally fall back to persisted-load or a full build.
        """
        key = ArtifactKey.for_database(database)
        bundle = self._bundles.get(key.database)
        if bundle is not None and bundle.key == key:
            self._record_hit(key.database)
            return bundle
        with self._build_lock(key.database):
            # Re-read the state: a racing caller may have refreshed or
            # rebuilt while we waited for the build lock.
            key = ArtifactKey.for_database(database)
            bundle = self._bundles.get(key.database)
            if bundle is not None and bundle.key == key:
                self._record_hit(key.database)
                return bundle
            if bundle is not None:
                if try_refresh:
                    upgraded = self._refresh_bundle(bundle, database)
                    if upgraded is not None:
                        self._bundles[key.database] = upgraded
                        self._persist(upgraded)
                        return upgraded
                with self._mutex:
                    if try_refresh:
                        self.stats.rebuild_fallbacks += 1
                    self.stats.invalidations += 1
            fresh = self._load_persisted(key)
            if fresh is None:
                fresh = self.build(database)
                self._persist(fresh)
            self._bundles[key.database] = fresh
            return fresh

    def _refresh_bundle(
        self, bundle: ArtifactBundle, database: Database
    ) -> Optional[ArtifactBundle]:
        """Upgrade ``bundle`` to the database's current state via deltas.

        Returns ``None`` (after recording the cause in
        ``stats.fallback_reasons``) whenever the incremental path does
        not apply; the caller then rebuilds from scratch.
        """
        if database.schema_version != bundle.key.schema_version:
            return self._fallback("schema_change")
        if bundle.database is not database:
            # A disk-loaded bundle's database is a private unpickled copy
            # frozen at load time; folding the live delta into artifacts
            # shared with readers of that copy would hand them terms of
            # rows past the copy's row count.  Rebuild once — the rebuilt
            # bundle references the live database and refreshes fine from
            # then on.
            return self._fallback("detached_database")
        marks = bundle.marks
        deltas = database.storage_deltas_since(marks)
        if deltas is None:
            return self._fallback("non_append_change")
        if not deltas:
            # The key moved but no table reports appended rows — the
            # bundle and the live storage disagree; trust neither.
            return self._fallback("inconsistent_marks")
        delta_rows = sum(delta.num_rows for delta in deltas.values())
        base_rows = sum(mark.num_rows for mark in marks.values())
        if base_rows == 0 or delta_rows > MAX_DELTA_FRACTION * base_rows:
            return self._fallback("delta_overflow")

        new_marks = dict(marks)
        for table_name, delta in deltas.items():
            new_marks[table_name] = delta.new_mark
        # The target key is the key of the captured marks, not of the live
        # database: appends racing with the upgrade simply leave the
        # result one delta behind, to be caught up by the next refresh.
        target_key = database.artifact_key_at(new_marks)
        try:
            bundle.index.apply_delta(database, deltas)
            bundle.catalog.apply_delta(database, deltas)
            bundle.schema_graph.apply_delta(database)
            bundle.models.apply_delta(database, deltas)
        except ReproError:
            # The artifacts may be half-upgraded; drop the bundle so the
            # fallback rebuild (and every later request) starts clean.
            self._bundles.pop(database.name, None)
            return self._fallback("apply_failed")
        except BaseException:
            # Same eviction for unexpected failures (MemoryError, a
            # KeyboardInterrupt mid-apply): were the half-upgraded bundle
            # left cached under its old key and marks, the next refresh
            # would fold the same delta in a second time.
            self._bundles.pop(database.name, None)
            raise
        with self._mutex:
            self.stats.refreshes += 1
            self.stats.delta_rows_applied += delta_rows
            self.stats.refreshes_by_database[database.name] += 1
        return replace(
            bundle,
            key=ArtifactKey(*target_key),
            database=database,
            marks=new_marks,
        )

    def _fallback(self, reason: str) -> None:
        """Record why the delta path was abandoned; returns ``None`` so
        callers can ``return self._fallback(...)``."""
        with self._mutex:
            self.stats.fallback_reasons[reason] += 1
        return None

    def cached_bundle(self, database_name: str) -> Optional[ArtifactBundle]:
        """The in-memory bundle for ``database_name``, if any (no build)."""
        return self._bundles.get(database_name)

    def warm(self, databases) -> list[ArtifactBundle]:
        """Eagerly materialize bundles for an iterable of databases."""
        return [self.get(database) for database in databases]

    def evict(self, database_name: str) -> bool:
        """Drop the in-memory bundle for ``database_name`` (disk untouched)."""
        with self._build_lock(database_name):
            return self._bundles.pop(database_name, None) is not None

    # ------------------------------------------------------------------
    # Construction and persistence
    # ------------------------------------------------------------------
    def build(self, database: Database) -> ArtifactBundle:
        """Build a bundle from scratch (no cache interaction besides stats)."""
        key = ArtifactKey.for_database(database)
        marks = database.storage_marks()
        index = InvertedIndex.build(database)
        catalog = MetadataCatalog.build(database)
        schema_graph = SchemaGraph(database)
        models = train_models(database)
        built_key = ArtifactKey.for_database(database)
        if built_key != key:
            raise ArtifactError(
                f"database {database.name!r} was mutated while its artifacts "
                "were being built; retry once writes have quiesced"
            )
        with self._mutex:
            self.stats.builds += 1
            self.stats.builds_by_database[key.database] += 1
        return ArtifactBundle(
            key=key,
            database=database,
            index=index,
            catalog=catalog,
            schema_graph=schema_graph,
            models=models,
            marks=marks,
        )

    def persisted_path(self, key: ArtifactKey) -> Optional[Path]:
        """Where ``key``'s bundle is (or would be) persisted, if enabled."""
        if self._persist_dir is None:
            return None
        return self._persist_dir / key.filename()

    def _persist(self, bundle: ArtifactBundle) -> None:
        """Best-effort write-through: a persistence failure never fails the
        request — the freshly built in-memory bundle is still served, and
        the failure is only counted in ``stats.disk_errors``."""
        path = self.persisted_path(bundle.key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp_path = path.with_suffix(path.suffix + ".tmp")
            with open(tmp_path, "wb") as handle:
                pickle.dump(bundle, handle, protocol=_PICKLE_PROTOCOL)
            tmp_path.replace(path)
        except (OSError, pickle.PicklingError):
            with self._mutex:
                self.stats.disk_errors += 1
            return
        with self._mutex:
            self.stats.disk_writes += 1

    def _load_persisted(self, key: ArtifactKey) -> Optional[ArtifactBundle]:
        """Load ``key``'s persisted bundle, degrading to a cache miss.

        An unreadable, corrupt or mismatched file must never poison the
        database it belongs to: the failure is counted, ``None`` is
        returned, and the caller rebuilds (the rebuild's write-through then
        replaces the bad file).
        """
        path = self.persisted_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                bundle = pickle.load(handle)
        except Exception:
            # pickle.load can raise nearly anything on hostile or
            # version-skewed input (UnpicklingError, EOFError,
            # AttributeError, ImportError, ...); all of it means "miss".
            with self._mutex:
                self.stats.disk_errors += 1
            return None
        if not isinstance(bundle, ArtifactBundle) or bundle.key != key:
            with self._mutex:
                self.stats.disk_errors += 1
            return None
        with self._mutex:
            self.stats.disk_loads += 1
        return bundle

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _build_lock(self, database_name: str) -> threading.Lock:
        with self._mutex:
            lock = self._build_locks.get(database_name)
            if lock is None:
                lock = threading.Lock()
                self._build_locks[database_name] = lock
            return lock

    def _record_hit(self, database_name: str) -> None:
        with self._mutex:
            self.stats.hits += 1
            self.stats.hits_by_database[database_name] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArtifactStore(bundles={sorted(self._bundles)}, "
            f"persist_dir={self._persist_dir})"
        )
