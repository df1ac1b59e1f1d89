"""The process-shard executor: front door, metrics and recovery.

These tests cross a real process boundary — each one spawns worker
processes via :class:`~repro.api.DiscoveryService` with
``shard_mode="process"``.  The start-method matrix is driven by the
``PRISM_TEST_START_METHODS`` environment variable (comma separated; CI
runs the suite once under ``fork`` and once under ``spawn``), defaulting
to the cheapest method the platform offers.
"""

from __future__ import annotations

import contextlib
import datetime
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.api import (
    ArtifactStore,
    DiscoveryRequest,
    DiscoveryService,
    demo_requests,
)
from repro.datasets import load_imdb, load_mondial, load_nba
from repro.discovery.candidates import GenerationLimits
from repro.errors import WireFormatError
from repro.service import shards, wire

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
        # Each shard warmed its own bundle exactly once.
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

    @pytest.mark.parametrize("wait", [True, False])
    def test_shutdown_drains_the_queue(self, company_db, start_method, wait):
        svc = _company_service(
            company_db, workers=2, start_method=start_method
        ).start()
        tickets = [svc.submit(_company_request()) for _ in range(6)]
        svc.shutdown(wait=wait)
        assert [t.result(timeout=120).status for t in tickets] == ["ok"] * 6
        # The shards stop after the queue is drained, and none is respawned.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            shard.process.is_alive() for shard in svc._pool._shards
        ):
            time.sleep(0.05)
        assert not any(shard.process.is_alive() for shard in svc._pool._shards)
        assert svc._pool.respawns == 0

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
            # The respawned shard's warm-up build is reported too.
            assert svc.metrics().artifacts["builds"] == 1 + svc._pool.respawns

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

    def test_undecodable_reply_fails_the_ticket_only(
        self, company_db, start_method, monkeypatch
    ):
        def malformed(payload):
            raise WireFormatError("malformed response frame")

        with _company_service(company_db, start_method=start_method) as svc:
            # Patched in the parent only: the shard still answers normally.
            monkeypatch.setattr(wire, "response_from_wire", malformed)
            failed = svc.submit(_company_request()).result(timeout=60)
            assert failed.status == "error"
            assert failed.error == "WireFormatError: malformed response frame"
            monkeypatch.undo()
            assert svc.submit(_company_request()).result(timeout=60).ok
            assert svc._pool.respawns == 0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="stops the shard with SIGSTOP",
    )
    def test_hung_shard_is_killed_and_respawned(
        self, company_db, start_method, monkeypatch
    ):
        monkeypatch.setattr(shards, "_GRACE_FLOOR_S", 0.5)
        with _company_service(company_db, start_method=start_method) as svc:
            hung = svc._pool._shards[0].process
            os.kill(hung.pid, signal.SIGSTOP)
            try:
                started = time.monotonic()
                failed = svc.submit(
                    _company_request(deadline_s=0.5)
                ).result(timeout=60)
                waited = time.monotonic() - started
                hung.join(timeout=1.0)
                assert not hung.is_alive()
            finally:
                if hung.is_alive():
                    os.kill(hung.pid, signal.SIGKILL)
            assert failed.status == "error"
            assert "did not respond" in failed.error
            assert waited < 5.0
            assert svc._pool.respawns == 1
            assert svc.submit(_company_request()).result(timeout=120).ok

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="stops the shard with SIGSTOP",
    )
    def test_shutdown_ends_a_stopped_shard(self, company_db, start_method):
        """A stopped shard reads no shutdown frame and does not act on
        SIGTERM until resumed; shutdown must still end it."""
        svc = _company_service(
            company_db, workers=2, start_method=start_method
        ).start()
        processes = [shard.process for shard in svc._pool._shards]
        assert len(processes) == 2
        os.kill(processes[0].pid, signal.SIGSTOP)
        try:
            svc.shutdown(wait=False)
            # The pool's shutdown thread reaps the shards; until it stores
            # a shard's exit code, is_alive() here can still read True for
            # an exited shard, so poll up to the deadline.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                process.is_alive() for process in processes
            ):
                time.sleep(0.05)
            assert [process.is_alive() for process in processes] == [False, False]
        finally:
            for process in processes:
                if process.is_alive():
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(process.pid, signal.SIGKILL)
                    process.join(timeout=5.0)

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

    def test_warm_start_rebuilds_and_heals_a_corrupt_bundle(
        self, company_db, start_method, tmp_path
    ):
        persisted = ArtifactStore(persist_dir=tmp_path)
        key = persisted.get(company_db).key
        persisted.persisted_path(key).write_bytes(b"not a pickle")
        with _company_service(
            company_db,
            start_method=start_method,
            store=ArtifactStore(persist_dir=tmp_path),
        ) as svc:
            assert svc.submit(_company_request()).result(timeout=120).ok
            metrics = svc.metrics()
        # The shard counts the unreadable file, builds the bundle once
        # and writes it back over the bad one.
        assert metrics.artifacts["disk_errors"] == 1
        assert metrics.artifacts["builds"] == 1
        healed = ArtifactStore(persist_dir=tmp_path)
        healed.get(company_db)
        assert healed.stats.disk_loads == 1
        assert healed.stats.builds == 0


class TestMetricsMergeAcrossPartitionedShards:
    """The requests are partitioned across the shards by whichever is
    free; the merged metrics still add up."""

    def test_totals_equal_sum_over_shards(self):
        svc = DiscoveryService(
            loaders={
                "mondial": load_mondial,
                "imdb": load_imdb,
                "nba": load_nba,
            },
            workers=2,
            shard_mode="process",
            limits=_LIMITS,
        )
        with svc:
            tickets = [svc.submit(r) for r in demo_requests(rounds=2)]
            responses = [t.result(timeout=300) for t in tickets]
            metrics = svc.metrics()
        assert [r.status for r in responses] == ["ok"] * 6
        # Every shard holds every database: its warm-up builds all three
        # bundles, reported in its ready frame.
        assert metrics.shards
        for info in metrics.shards.values():
            assert info["served"] >= 1
            assert info["artifacts"]["builds"] == 3
            assert info["artifacts"]["builds_by_database"] == {
                "imdb": 1, "mondial": 1, "nba": 1,
            }
        assert metrics.artifacts["builds"] == sum(
            info["artifacts"]["builds"] for info in metrics.shards.values()
        )
        assert metrics.completed == sum(
            info["served"] for info in metrics.shards.values()
        )
        by_db = metrics.artifacts["builds_by_database"]
        assert by_db == {name: len(metrics.shards) for name in by_db}
        assert sorted(by_db) == ["imdb", "mondial", "nba"]

    def test_warm_up_builds_of_an_idle_shard_are_reported(self):
        svc = DiscoveryService(
            loaders={"imdb": load_imdb, "nba": load_nba},
            workers=2,
            shard_mode="process",
            limits=_LIMITS,
        )
        with svc:
            request = demo_requests(databases=["nba"])[0]
            assert svc.submit(request).result(timeout=300).ok
            metrics = svc.metrics()
        # One request, but both shards built both bundles at warm-up.
        assert metrics.artifacts["builds"] == 4
        assert sorted(metrics.shards) == [0, 1]
        for info in metrics.shards.values():
            assert info["artifacts"]["builds"] == 2
        assert sum(info["served"] for info in metrics.shards.values()) == 1


class TestGoldenEquality:
    def test_thread_and_process_results_are_identical(self):
        """Same demo workload, bit-for-bit equal results across executors."""

        def run(shard_mode: str, workers: int):
            svc = DiscoveryService(
                loaders={
                    "mondial": load_mondial,
                    "imdb": load_imdb,
                    "nba": load_nba,
                },
                workers=workers,
                shard_mode=shard_mode,
                limits=_LIMITS,
            )
            with svc:
                tickets = [svc.submit(r) for r in demo_requests()]
                return [t.result(timeout=300) for t in tickets]

        thread_responses = run("thread", workers=1)
        process_responses = run("process", workers=2)
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
