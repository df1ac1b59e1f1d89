"""Unit tests for the concurrent discovery service front door."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.errors import ServiceError, ServiceOverloaded
from repro.api import (
    ArtifactStore,
    DiscoveryRequest,
    DiscoveryService,
    demo_requests,
    request_from_dict,
)


def _company_request(**overrides) -> DiscoveryRequest:
    spec = MappingSpec(2)
    spec.add_sample_cells([ExactValue("Alice Chen"), ExactValue("Engineering")])
    fields = dict(database="company", spec=spec)
    fields.update(overrides)
    return DiscoveryRequest(**fields)


@pytest.fixture()
def service(company_db):
    svc = DiscoveryService(databases={"company": company_db})
    yield svc
    svc.shutdown()


class TestSubmission:
    def test_submit_and_result(self, service):
        ticket = service.submit(_company_request())
        response = ticket.result(timeout=30)
        assert response.ok
        assert response.status == "ok"
        assert response.num_queries >= 1
        assert response.request_id.startswith("req-")
        assert response.database == "company"
        assert response.execution_seconds >= 0

    def test_execute_synchronous_path(self, service):
        response = service.execute(_company_request())
        assert response.ok
        assert response.queued_seconds == 0.0

    def test_run_batch_preserves_order(self, service):
        requests = [
            _company_request(request_id=f"batch-{index}") for index in range(6)
        ]
        responses = service.run_batch(requests)
        assert [response.request_id for response in responses] == [
            f"batch-{index}" for index in range(6)
        ]
        assert all(response.ok for response in responses)

    def test_unknown_database_is_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="unknown database"):
            service.submit(_company_request(database="nope"))

    def test_engine_error_becomes_error_response(self, service):
        response = service.execute(
            _company_request(scheduler="not-a-policy")
        )
        assert response.status == "error"
        assert response.result is None
        assert "not-a-policy" in response.error

    def test_submit_after_shutdown_raises(self, company_db):
        svc = DiscoveryService(databases={"company": company_db})
        svc.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(_company_request())

    def test_context_manager_runs_and_drains(self, company_db):
        with DiscoveryService(databases={"company": company_db}) as svc:
            tickets = [svc.submit(_company_request()) for _ in range(3)]
        assert all(ticket.result(timeout=1).ok for ticket in tickets)


class TestFailureContainment:
    def test_unexpected_exception_resolves_the_ticket(
        self, company_db, monkeypatch
    ):
        from repro.discovery.engine import Prism

        original = Prism.discover
        calls = []

        def fail_first_round(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("round blew up")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Prism, "discover", fail_first_round)
        with DiscoveryService(
            databases={"company": company_db}, workers=1
        ) as svc:
            # Both tickets queue for the single worker thread.
            failed = svc.submit(_company_request())
            queued = svc.submit(_company_request())
            assert failed.result(timeout=10).status == "error"
            assert failed.result().error == "RuntimeError: round blew up"
            assert queued.result(timeout=10).ok


class TestTimeouts:
    def test_tiny_budget_yields_structured_timeout(self, service):
        response = service.execute(_company_request(deadline_s=1e-9))
        assert response.status == "timeout"
        assert response.result is not None
        assert response.result.timed_out
        # Partial stats are attached, never an opaque error.
        assert response.result.stats.scheduler_name == "bayesian"

    def test_budget_spent_in_queue_times_out_without_running(self, company_db):
        release = threading.Event()

        def blocking_loader():
            release.wait(30)
            return company_db

        svc = DiscoveryService(
            databases={"company": company_db},
            loaders={"slow": blocking_loader},
            workers=1,
            queue_size=8,
        )
        try:
            blocker = svc.submit(_company_request(database="slow"))
            starved = svc.submit(_company_request(deadline_s=0.05))
            time.sleep(0.2)
            release.set()
            assert blocker.result(timeout=30).ok
            response = starved.result(timeout=30)
            assert response.status == "timeout"
            assert "queued" in response.error
            assert response.result.timed_out
            assert response.queued_seconds >= 0.05
        finally:
            release.set()
            svc.shutdown()


class TestBackpressureAndCancellation:
    def _blocked_service(self, company_db):
        release = threading.Event()

        def blocking_loader():
            release.wait(30)
            return company_db

        svc = DiscoveryService(
            databases={"company": company_db},
            loaders={"slow": blocking_loader},
            workers=1,
            queue_size=1,
        )
        return svc, release

    def test_full_queue_rejects_with_service_overloaded(self, company_db):
        svc, release = self._blocked_service(company_db)
        try:
            svc.submit(_company_request(database="slow"))  # occupies the worker
            time.sleep(0.1)
            svc.submit(_company_request())  # fills the queue slot
            with pytest.raises(ServiceOverloaded):
                svc.submit(_company_request())
            assert svc.metrics().rejected == 1
        finally:
            release.set()
            svc.shutdown()

    def test_cancel_queued_request(self, company_db):
        svc, release = self._blocked_service(company_db)
        try:
            svc.submit(_company_request(database="slow"))
            time.sleep(0.1)
            queued = svc.submit(_company_request())
            assert queued.cancel()
            release.set()
            response = queued.result(timeout=30)
            assert response.status == "cancelled"
            assert response.result is None
        finally:
            release.set()
            svc.shutdown()

    def test_cannot_cancel_completed_request(self, service):
        ticket = service.submit(_company_request())
        ticket.result(timeout=30)
        assert not ticket.cancel()


class TestMetrics:
    def test_counters_and_latency(self, service):
        for _ in range(4):
            service.submit(_company_request())
        # Drain by waiting on a final marker request.
        service.submit(_company_request()).result(timeout=30)
        deadline = time.monotonic() + 30
        while service.metrics().completed < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        metrics = service.metrics()
        assert metrics.submitted == 5
        assert metrics.completed == 5
        assert metrics.ok == 5
        assert metrics.in_flight == 0
        assert metrics.latency_count == 5
        assert metrics.latency_max_seconds >= metrics.latency_min_seconds > 0
        assert metrics.latency_p95_seconds >= metrics.latency_p50_seconds
        assert metrics.artifacts["builds"] == 1
        assert metrics.artifacts["hits"] == 4

    def test_shared_store_is_visible_in_metrics(self, company_db):
        store = ArtifactStore()
        store.get(company_db)
        svc = DiscoveryService(databases={"company": company_db}, store=store)
        try:
            assert svc.execute(_company_request()).ok
            assert svc.metrics().artifacts["builds"] == 1
            assert svc.metrics().artifacts["hits"] >= 1
        finally:
            svc.shutdown()


class TestConfigurationValidation:
    def test_invalid_pool_parameters(self, company_db):
        with pytest.raises(ServiceError):
            DiscoveryService(databases={"company": company_db}, workers=0)
        # Thread mode, the default, runs exactly one worker.
        with pytest.raises(ServiceError, match='shard_mode="process"'):
            DiscoveryService(databases={"company": company_db}, workers=2)
        with pytest.raises(ServiceError, match='shard_mode="process"'):
            DiscoveryService(
                databases={"company": company_db},
                shard_mode="thread",
                workers=2,
            )
        with pytest.raises(ServiceError):
            DiscoveryService(databases={"company": company_db}, queue_size=0)
        for deadline_s in (0, math.nan):
            with pytest.raises(ServiceError):
                DiscoveryService(
                    databases={"company": company_db},
                    default_deadline_s=deadline_s,
                )

    @pytest.mark.parametrize("deadline_s", [0, -1.0, math.nan])
    def test_nonpositive_request_budget_rejected(self, service, deadline_s):
        with pytest.raises(ServiceError, match="deadline_s"):
            service.submit(_company_request(deadline_s=deadline_s))

    def test_default_service_serves_bundled_databases(self):
        svc = DiscoveryService()
        try:
            assert svc.available_databases() == ["imdb", "mondial", "nba"]
        finally:
            svc.shutdown()


class TestWorkloadBuilders:
    def test_request_from_dict_round_trip(self):
        request = request_from_dict(
            {
                "database": "nba",
                "columns": 2,
                "samples": [["Lakers", "LeBron James"], ["", ""]],
                "metadata": {"0": "DataType=='text'"},
                "scheduler": "filter",
                "deadline_s": 5,
                "request_id": "r1",
            }
        )
        assert request.database == "nba"
        assert request.spec.num_columns == 2
        assert len(request.spec.samples) == 1
        assert request.spec.metadata_for(0) is not None
        assert request.scheduler == "filter"
        assert request.deadline_s == 5.0
        assert request.request_id == "r1"

    @pytest.mark.parametrize(
        "deadline_s", [True, False, "2.5", math.nan, [1], 10**400]
    )
    def test_request_from_dict_rejects_a_deadline_that_is_not_a_number(
        self, deadline_s
    ):
        with pytest.raises(ServiceError, match="'deadline_s'"):
            request_from_dict(
                {"database": "nba", "columns": 1, "samples": [["Lakers"]],
                 "deadline_s": deadline_s}
            )

    def test_request_from_dict_requires_core_keys(self):
        with pytest.raises(ServiceError, match="missing key"):
            request_from_dict({"columns": 2})

    def test_request_from_dict_rejects_the_removed_time_limit_key(self):
        with pytest.raises(ServiceError, match="deadline_s"):
            request_from_dict(
                {"database": "nba", "columns": 1, "samples": [["Lakers"]],
                 "time_limit": 5}
            )

    def test_demo_requests_cover_all_bundled_databases(self):
        requests = demo_requests(rounds=2)
        assert len(requests) == 6
        assert {request.database for request in requests} == {
            "mondial",
            "imdb",
            "nba",
        }
        for request in requests:
            request.spec.validate()

    def test_demo_requests_filter_and_validation(self):
        assert len(demo_requests(databases=["nba"], rounds=3)) == 3
        with pytest.raises(ServiceError):
            demo_requests(databases=["unknown"])
        with pytest.raises(ServiceError):
            demo_requests(rounds=0)
