"""Concurrency stress tests for the discovery service.

The acceptance bar for the service layer: many concurrent mixed-database
rounds through one :class:`DiscoveryService`, with the artifact store's
counters proving each database's preprocessing bundle was built exactly
once — every later request is a cache hit over shared immutable state.
"""

from __future__ import annotations

import threading

import pytest

from repro.discovery.candidates import GenerationLimits
from repro.api import ArtifactStore, DiscoveryService, demo_requests

# Keep every individual round fast while still validating real candidates.
STRESS_LIMITS = GenerationLimits(
    max_candidates=100,
    max_assignments=200,
    max_trees_per_assignment=4,
)

ROUNDS = 4  # 4 rounds x 3 bundled databases = 12 requests


@pytest.fixture(scope="module")
def stress_databases(mondial_db, imdb_db, nba_db):
    return {"mondial": mondial_db, "imdb": imdb_db, "nba": nba_db}


class TestServiceStress:
    def test_concurrent_mixed_database_requests_build_each_bundle_once(
        self, stress_databases
    ):
        store = ArtifactStore()
        service = DiscoveryService(
            databases=stress_databases,
            store=store,
            workers=8,
            queue_size=32,
            limits=STRESS_LIMITS,
        )
        requests = demo_requests(rounds=ROUNDS)
        assert len(requests) >= 8
        assert len({request.database for request in requests}) >= 2
        with service:
            # Submit everything before consuming any response so the pool
            # genuinely races: all 8 workers contend for the same bundles.
            tickets = [service.submit(request, block=True) for request in requests]
            responses = [ticket.result(timeout=120) for ticket in tickets]

        assert [response.status for response in responses] == ["ok"] * len(requests)
        for response in responses:
            assert response.num_queries >= 1

        # The proof: one build per database, every other request a hit.
        stats = store.stats
        assert dict(stats.builds_by_database) == {
            "mondial": 1,
            "imdb": 1,
            "nba": 1,
        }
        assert stats.builds == 3
        assert stats.hits == len(requests) - stats.builds
        assert stats.invalidations == 0

        metrics = service.metrics()
        assert metrics.completed == len(requests)
        assert metrics.ok == len(requests)
        assert metrics.in_flight == 0

    def test_many_client_threads_share_one_service(self, stress_databases):
        store = ArtifactStore()
        service = DiscoveryService(
            databases=stress_databases,
            store=store,
            workers=4,
            queue_size=64,
            limits=STRESS_LIMITS,
        )
        num_clients = 8
        per_client = demo_requests(rounds=1)
        barrier = threading.Barrier(num_clients)
        failures: list[str] = []

        def client(client_index: int) -> None:
            try:
                barrier.wait(timeout=30)
                responses = service.run_batch(per_client)
                for response in responses:
                    if not response.ok:
                        failures.append(
                            f"client {client_index}: {response.status} "
                            f"({response.error})"
                        )
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(f"client {client_index}: {exc!r}")

        with service:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not failures
        assert store.stats.builds == 3
        assert store.stats.hits == num_clients * len(per_client) - 3
        # Every client saw identical shared bundles, so identical results
        # modulo scheduling: spot-check deterministic query counts per db.
        assert service.metrics().completed == num_clients * len(per_client)
