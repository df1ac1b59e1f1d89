"""The process-shard executor: routing, front door, metrics and recovery.

These tests cross a real process boundary — each one spawns worker
processes via :class:`~repro.api.DiscoveryService` with
``shard_mode="process"``.  The start-method matrix is driven by the
``PRISM_TEST_START_METHODS`` environment variable (comma separated; CI
runs the suite once under ``fork`` and once under ``spawn``), defaulting
to the cheapest method the platform offers.
"""

from __future__ import annotations

import datetime
import multiprocessing
import os
import time

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.api import (
    ArtifactStore,
    DiscoveryRequest,
    DiscoveryService,
    ShardAssignment,
    demo_requests,
)
from repro.datasets import load_imdb, load_mondial, load_nba
from repro.discovery.candidates import GenerationLimits
from repro.errors import ServiceError

_LIMITS = GenerationLimits(max_candidates=200, max_assignments=400)


def _start_methods() -> list[str]:
    configured = os.environ.get("PRISM_TEST_START_METHODS")
    if configured:
        return [m.strip() for m in configured.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    return ["fork"] if "fork" in available else ["spawn"]


START_METHODS = _start_methods()


def _company_request(**overrides) -> DiscoveryRequest:
    spec = MappingSpec(2)
    spec.add_sample_cells([ExactValue("Alice Chen"), ExactValue("Engineering")])
    fields = dict(database="company", spec=spec)
    fields.update(overrides)
    return DiscoveryRequest(**fields)


def _company_service(company_db, **overrides) -> DiscoveryService:
    fields = dict(
        databases={"company": company_db},
        workers=1,
        shard_mode="process",
        limits=_LIMITS,
    )
    fields.update(overrides)
    return DiscoveryService(**fields)


class TestShardAssignment:
    def test_no_replication_means_every_shard_owns_everything(self):
        assignment = ShardAssignment(["a", "b", "c"], num_shards=2)
        assert assignment.owners("a") == {0, 1}
        assert assignment.databases_for(0) == ["a", "b", "c"]
        assert assignment.databases_for(1) == ["a", "b", "c"]

    def test_replication_partitions_round_robin(self):
        assignment = ShardAssignment(
            ["a", "b", "c", "d"], num_shards=3, replication=1
        )
        owned = [assignment.databases_for(shard) for shard in range(3)]
        assert owned == [["a", "d"], ["b"], ["c"]]
        assert assignment.owners("b") == {1}

    def test_replication_two_spreads_to_adjacent_shards(self):
        assignment = ShardAssignment(["a", "b"], num_shards=3, replication=2)
        assert assignment.owners("a") == {0, 1}
        assert assignment.owners("b") == {1, 2}

    def test_invalid_replication_rejected(self):
        with pytest.raises(ServiceError):
            ShardAssignment(["a"], num_shards=2, replication=0)
        with pytest.raises(ServiceError):
            ShardAssignment(["a"], num_shards=2, replication=3)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestProcessServing:
    def test_serves_and_reports_shard_metrics(self, company_db, start_method):
        with _company_service(
            company_db, workers=2, start_method=start_method
        ) as svc:
            assert svc.shard_mode == "process"
            tickets = [svc.submit(_company_request()) for _ in range(4)]
            responses = [t.result(timeout=120) for t in tickets]
            metrics = svc.metrics()
        assert [r.status for r in responses] == ["ok"] * 4
        assert all(r.num_queries >= 1 for r in responses)
        assert set(metrics.shards) == {0, 1}
        assert (
            sum(info["served"] for info in metrics.shards.values())
            == metrics.completed
            == 4
        )
        # Each shard that served anything warmed its own bundle exactly once.
        for info in metrics.shards.values():
            assert info["artifacts"]["builds"] == 1
        assert metrics.artifacts["builds"] == sum(
            info["artifacts"]["builds"] for info in metrics.shards.values()
        )

    def test_front_door_cancellation_and_deadline_while_queued(
        self, company_db, start_method
    ):
        svc = _company_service(company_db, start_method=start_method)
        svc.start()
        try:
            # Hold the single shard's dispatch lock so its worker thread
            # blocks mid-flight: everything submitted after `first` stays
            # in the parent-side queue, where the front door still owns it.
            shard_lock = svc._pool._shards[0].lock
            with shard_lock:
                first = svc.submit(_company_request())
                time.sleep(0.2)  # let the worker pick `first` up and block
                queued = svc.submit(_company_request())
                assert queued.cancel()
                starved = svc.submit(_company_request(deadline_s=0.05))
                time.sleep(0.2)  # burn the starved request's budget in queue
            assert first.result(timeout=120).ok
            cancelled = queued.result(timeout=120)
            assert cancelled.status == "cancelled"
            assert cancelled.result is None
            response = starved.result(timeout=120)
            assert response.status == "timeout"
            assert "queued" in response.error
            assert response.queued_seconds >= 0.05
        finally:
            svc.shutdown()

    def test_crashed_shard_is_respawned_and_recovers(
        self, company_db, start_method
    ):
        with _company_service(company_db, start_method=start_method) as svc:
            assert svc.submit(_company_request()).result(timeout=120).ok
            svc._pool.crash_shard(0)
            failed = svc.submit(_company_request()).result(timeout=120)
            assert failed.status == "error"
            assert "shard" in failed.error
            recovered = svc.submit(_company_request()).result(timeout=120)
            assert recovered.ok
            assert svc._pool.respawns >= 1

    def test_unencodable_request_fails_and_shard_keeps_serving(
        self, company_db, start_method
    ):
        # JSON has no date type: the request cannot cross the pipe.
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [ExactValue(datetime.date(2023, 10, 24)), ExactValue("Alice Chen")]
        )
        with _company_service(company_db, start_method=start_method) as svc:
            failed = svc.submit(
                DiscoveryRequest(database="company", spec=spec)
            ).result(timeout=30)
            assert failed.status == "error"
            assert "datetime.date(2023, 10, 24)" in failed.error
            # The same shard's worker thread is still serving.
            assert svc.submit(_company_request()).result(timeout=120).ok
            assert svc._pool.respawns == 0

    def test_warm_start_from_persisted_bundles(
        self, company_db, start_method, tmp_path
    ):
        store = ArtifactStore(persist_dir=tmp_path)
        store.get(company_db)  # parent writes the bundle to disk once
        with _company_service(
            company_db, start_method=start_method, store=store
        ) as svc:
            assert svc.submit(_company_request()).result(timeout=120).ok
            metrics = svc.metrics()
        assert metrics.artifacts["disk_loads"] >= 1
        assert metrics.artifacts["builds"] == 0


class TestMetricsMergeAcrossPartitionedShards:
    def test_totals_equal_sum_over_shards(self):
        svc = DiscoveryService(
            loaders={
                "mondial": load_mondial,
                "imdb": load_imdb,
                "nba": load_nba,
            },
            workers=3,
            shard_mode="process",
            replication=1,
            limits=_LIMITS,
        )
        with svc:
            tickets = [svc.submit(r) for r in demo_requests()]
            responses = [t.result(timeout=300) for t in tickets]
            metrics = svc.metrics()
        assert [r.status for r in responses] == ["ok"] * 3
        # replication=1 partitions the three databases one per shard, so
        # each shard builds exactly its own bundle and the merged totals
        # are the sums over shards.
        assert metrics.artifacts["builds"] == 3
        for info in metrics.shards.values():
            assert info["artifacts"]["builds"] == 1
            assert info["served"] == 1
        assert metrics.artifacts["builds"] == sum(
            info["artifacts"]["builds"] for info in metrics.shards.values()
        )
        assert metrics.completed == sum(
            info["served"] for info in metrics.shards.values()
        )
        by_db = metrics.artifacts["builds_by_database"]
        assert sorted(by_db) == ["imdb", "mondial", "nba"]


class TestGoldenEquality:
    def test_thread_and_process_results_are_identical(self):
        """Same demo workload, bit-for-bit equal results across executors."""

        def run(shard_mode: str):
            svc = DiscoveryService(
                loaders={
                    "mondial": load_mondial,
                    "imdb": load_imdb,
                    "nba": load_nba,
                },
                workers=2,
                shard_mode=shard_mode,
                limits=_LIMITS,
            )
            with svc:
                tickets = [svc.submit(r) for r in demo_requests()]
                return [t.result(timeout=300) for t in tickets]

        thread_responses = run("thread")
        process_responses = run("process")
        assert len(thread_responses) == len(process_responses) == 3
        for ours, theirs in zip(thread_responses, process_responses):
            assert ours.request_id == theirs.request_id
            assert ours.status == theirs.status == "ok"
            assert ours.result.sql() == theirs.result.sql()
            ours_stats = ours.result.stats.as_dict()
            theirs_stats = theirs.result.stats.as_dict()
            # Wall-clock timings legitimately differ across executors.
            for volatile in (
                "elapsed_seconds",
                "related_column_seconds",
                "candidate_seconds",
                "validation_seconds",
            ):
                ours_stats.pop(volatile, None)
                theirs_stats.pop(volatile, None)
            assert ours_stats == theirs_stats
