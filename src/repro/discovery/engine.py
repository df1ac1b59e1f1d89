"""The Prism engine: the public entry point for query discovery.

Wires together preprocessing (inverted index, metadata catalog, schema
graph, Bayesian models), the discovery pipeline (related columns →
candidates → filters) and the filter-validation scheduler, under the
paper's interactive time limit (60 seconds per round by default, §2.2).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Optional

from repro.bayesian.estimator import SelectivityEstimator
from repro.bayesian.training import BayesianModelSet, train_models
from repro.constraints.spec import MappingSpec
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex
from repro.dataset.schema_graph import SchemaGraph
from repro.discovery.candidates import CandidateGenerator, GenerationLimits
from repro.discovery.filters import build_filters
from repro.discovery.related_columns import RelatedColumnFinder
from repro.discovery.result import DiscoveryResult, DiscoveryStats
from repro.discovery.scheduler import ValidationDriver, make_policy
from repro.discovery.validation import FilterValidator
from repro.errors import DiscoveryError, DiscoveryTimeout
from repro.query.executor import Executor, ExecutorCache
from repro.query.sql import to_sql

__all__ = ["Prism", "DEFAULT_TIME_LIMIT_SECONDS"]

DEFAULT_TIME_LIMIT_SECONDS = 60.0


def _check_time_limit(seconds: float) -> None:
    """Reject a time limit that is not positive; NaN, which compares
    false with everything and so would never expire, included."""
    if not seconds > 0:
        raise DiscoveryError("time_limit must be positive")


class Prism:
    """Multiresolution schema mapping query discovery over one database.

    Example:
        >>> from repro import (Column, Database, DataType, MappingSpec,
        ...                    Prism, parse_value_constraint)
        >>> db = Database("docs")
        >>> city = db.create_table("City", [
        ...     Column("Name", DataType.TEXT),
        ...     Column("Population", DataType.INT),
        ... ])
        >>> city.insert_many([("Springfield", 117_000), ("Shelbyville", 42_000)])
        2
        >>> prism = Prism(db, time_limit=5.0)
        >>> spec = MappingSpec(num_columns=2)
        >>> _ = spec.add_sample_cells([parse_value_constraint("Springfield"), None])
        >>> prism.discover(spec).sql()
        ['SELECT City.Name, City.Population FROM City']
    """

    def __init__(
        self,
        database: Database,
        scheduler: str = "bayesian",
        time_limit: float = DEFAULT_TIME_LIMIT_SECONDS,
        limits: Optional[GenerationLimits] = None,
        train_bayesian: bool = True,
        batch_validation: bool = True,
        *,
        use_sketches: bool = True,
        index: Optional[InvertedIndex] = None,
        catalog: Optional[MetadataCatalog] = None,
        schema_graph: Optional[SchemaGraph] = None,
        models: Optional[BayesianModelSet] = None,
        cache: Optional[ExecutorCache] = None,
    ):
        """Preprocess ``database`` and prepare the engine.

        Each preprocessing artifact (inverted index, metadata catalog,
        schema graph, Bayesian models) may be injected instead of built, so
        many engines can serve over one shared, immutable artifact set —
        see :meth:`from_artifacts` and :class:`repro.api.ArtifactStore`.
        So may the artifacts' :class:`~repro.query.executor.ExecutorCache`
        (plans, edge kernels, Bloom masks, planner memos), which engines
        over one bundle then share.  Beyond that, an engine holds only
        its :class:`Executor`'s counters and probe outcomes.

        Args:
            database: the source database.
            scheduler: default scheduling policy (``naive``, ``filter``,
                ``bayesian``/``prism`` or ``optimal``).
            time_limit: per-discovery interactive time budget in seconds.
            limits: candidate-generation bounds.
            train_bayesian: train the Bayesian models eagerly (required for
                the ``bayesian`` scheduler; ignored when ``models`` is
                injected).
            batch_validation: share validation work across probes:
                validate filters sharing one join structure in batched
                executor passes (see
                :meth:`~repro.query.executor.Executor.exists_batch`), and
                scan each (table, column, constraint) once per
                ``discover()`` call (see
                :meth:`~repro.query.executor.Executor.round`).  Discovery
                results and validation counts are identical either way;
                disabling it decides every probe on its own, the
                per-candidate baseline that benchmarks and differential
                tests compare against.
            use_sketches: consult the catalog's statistics sketches
                (HyperLogLog join estimates, Bloom probe pre-filtering,
                histogram selectivity, sketch-informed scheduling cost).
                Discovered queries are identical either way; only plan
                choices and probe work change.  Off is the raw-count
                baseline the sketch benchmark compares against.
            index: prebuilt inverted index for ``database``.
            catalog: prebuilt metadata catalog for ``database``.
            schema_graph: prebuilt schema graph for ``database``.
            models: pretrained Bayesian model set for ``database``.
            cache: the executor cache of the artifacts above (an
                artifact bundle's ``cache``); the engine fills a private
                one without it.
        """
        _check_time_limit(time_limit)
        self.database = database
        self.scheduler = scheduler
        self.time_limit = time_limit
        self.index = index if index is not None else InvertedIndex.build(database)
        self.catalog = (
            catalog if catalog is not None else MetadataCatalog.build(database)
        )
        self.schema_graph = (
            schema_graph if schema_graph is not None else SchemaGraph(database)
        )
        # The executor plans with the catalog's cardinalities; its
        # physical plans are keyed by join-prefix key and therefore
        # shared across every candidate joining the same structure.
        self.use_sketches = use_sketches
        self.executor = Executor(
            database, catalog=self.catalog, use_sketches=use_sketches,
            cache=cache,
        )
        self.limits = limits or GenerationLimits()
        self.batch_validation = batch_validation
        self.models: Optional[BayesianModelSet] = None
        self._estimator: Optional[SelectivityEstimator] = None
        if models is not None:
            self.models = models
            self._estimator = models.estimator()
        elif train_bayesian:
            self.models = train_models(database)
            self._estimator = self.models.estimator()
        self._finder = RelatedColumnFinder(database, self.index, self.catalog)
        self._generator = CandidateGenerator(database, self.schema_graph, self.limits)

    @classmethod
    def from_artifacts(
        cls,
        bundle,
        scheduler: Optional[str] = None,
        time_limit: float = DEFAULT_TIME_LIMIT_SECONDS,
        limits: Optional[GenerationLimits] = None,
    ) -> "Prism":
        """Build a per-request engine over a shared preprocessing bundle.

        ``bundle`` is a :class:`repro.service.artifacts.ArtifactBundle` (or
        any object exposing ``database``, ``index``, ``catalog``,
        ``schema_graph``, ``models`` and ``cache``).  No preprocessing
        runs: the returned engine is a cheap view over the bundle's
        immutable artifacts.  Its executor shares the bundle's cache of
        plans, edge kernels, Bloom masks and planner memos with every
        other engine over the bundle, and keeps its own counters and
        probe outcomes, so constructing one per request is the intended
        usage under concurrency.
        """
        return cls(
            bundle.database,
            scheduler=scheduler if scheduler is not None else "bayesian",
            time_limit=time_limit,
            limits=limits,
            train_bayesian=False,
            index=bundle.index,
            catalog=bundle.catalog,
            schema_graph=bundle.schema_graph,
            models=bundle.models,
            cache=bundle.cache,
        )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    @property
    def estimator(self) -> Optional[SelectivityEstimator]:
        """The trained selectivity estimator (None when not trained)."""
        return self._estimator

    def discover(
        self,
        spec: MappingSpec,
        scheduler: Optional[str] = None,
        time_limit: Optional[float] = None,
        raise_on_timeout: bool = False,
        validation_budget: Optional[int] = None,
    ) -> DiscoveryResult:
        """Discover every schema mapping query satisfying ``spec``.

        Args:
            spec: the user's multiresolution constraints.
            scheduler: override the engine's default scheduling policy.
            time_limit: override the engine's time budget (seconds);
                like it, positive (NaN raises :class:`DiscoveryError`).
                ``math.inf`` is accepted: combined with a
                ``validation_budget`` it makes a run's work — and all its
                counters — fully deterministic (no wall-clock cutoffs),
                which is how the benchmark harness pins byte-stable
                reports.
            raise_on_timeout: raise :class:`DiscoveryTimeout` instead of
                returning a partial, ``timed_out`` result.
            validation_budget: optional cap on the number of filter
                validations this run may execute; the scheduler stops
                (reporting ``timed_out``) when the cap is reached.  A
                count-based budget, unlike the wall-clock limit, is
                deterministic across runs and machines.

        Returns:
            A :class:`DiscoveryResult` whose queries are guaranteed to match
            every constraint in ``spec``.
        """
        spec.validate()
        scheduler_name = scheduler or self.scheduler
        budget = time_limit if time_limit is not None else self.time_limit
        _check_time_limit(budget)
        policy = make_policy(scheduler_name)
        if policy.name == "bayesian" and self._estimator is None:
            raise DiscoveryError(
                "the bayesian scheduler requires trained models; construct "
                "Prism with train_bayesian=True"
            )

        started = time.monotonic()
        deadline = started + budget
        stats = DiscoveryStats(scheduler_name=policy.name)

        stage_start = time.monotonic()
        related = self._finder.find(spec)
        stats.related_column_seconds = time.monotonic() - stage_start
        stats.num_related_columns = related.total_columns

        result = DiscoveryResult(stats=stats)
        if not related.is_satisfiable():
            stats.elapsed_seconds = time.monotonic() - started
            return result

        stage_start = time.monotonic()
        candidates = self._generator.generate(spec, related, deadline=deadline)
        stats.candidate_seconds = time.monotonic() - stage_start
        stats.num_candidates = len(candidates)
        result.candidates = candidates
        if not candidates:
            stats.elapsed_seconds = time.monotonic() - started
            stats.timed_out = time.monotonic() > deadline
            if stats.timed_out and raise_on_timeout:
                raise DiscoveryTimeout(
                    "candidate generation exceeded the time limit", result
                )
            return result

        filter_set = build_filters(spec, candidates)
        stats.num_filters = filter_set.num_filters

        stage_start = time.monotonic()
        validator = FilterValidator(self.executor, spec)
        driver = ValidationDriver(
            filter_set,
            validator,
            policy,
            estimator=self._estimator,
            deadline=deadline,
            batch=self.batch_validation,
            max_validations=validation_budget,
            planner=self.executor.planner if self.use_sketches else None,
        )
        executor_before = replace(self.executor.stats)
        with self.executor.round() if self.batch_validation else nullcontext():
            scheduling = driver.run()
        executor_after = self.executor.stats
        stats.validation_seconds = time.monotonic() - stage_start
        stats.validations = scheduling.validations
        stats.implied_outcomes = scheduling.implied_outcomes
        stats.num_confirmed = scheduling.num_confirmed
        stats.num_pruned = len(scheduling.pruned_candidate_ids)
        stats.timed_out = scheduling.timed_out
        stats.exists_cache_hits = validator.stats.cache_hits
        stats.exists_cache_misses = validator.stats.cache_misses
        # The executor is shared across discover() calls, so report its
        # deltas, not its totals.
        stats.joins_performed = (
            executor_after.joins_performed - executor_before.joins_performed
        )
        stats.plan_cache_hits = (
            executor_after.plan_cache_hits - executor_before.plan_cache_hits
        )
        stats.plan_cache_builds = (
            executor_after.plan_cache_builds - executor_before.plan_cache_builds
        )
        stats.bloom_rejections = (
            executor_after.bloom_rejections - executor_before.bloom_rejections
        )
        stats.sketch_estimates_used = (
            executor_after.sketch_estimates_used
            - executor_before.sketch_estimates_used
        )
        stats.validation_batches = validator.stats.batches
        stats.batched_outcomes = validator.stats.batched_outcomes

        confirmed_ids = set(scheduling.confirmed_candidate_ids)
        confirmed = [
            candidate for candidate in candidates if candidate.id in confirmed_ids
        ]
        confirmed.sort(key=lambda candidate: (candidate.join_size, to_sql(candidate.query)))
        result.queries = [candidate.query for candidate in confirmed]
        stats.elapsed_seconds = time.monotonic() - started

        if stats.timed_out and raise_on_timeout:
            raise DiscoveryTimeout("query discovery exceeded the time limit", result)
        return result

    # ------------------------------------------------------------------
    # Introspection helpers used by the workbench and evaluation harness
    # ------------------------------------------------------------------
    def related_columns(self, spec: MappingSpec):
        """Expose step 1 (related-column discovery) for inspection."""
        return self._finder.find(spec)

    def candidate_queries(self, spec: MappingSpec):
        """Expose candidate enumeration (no validation) for inspection."""
        related = self._finder.find(spec)
        return self._generator.generate(spec, related)
