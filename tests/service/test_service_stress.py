"""Concurrency stress tests for the discovery service.

The acceptance bar for the service layer: many concurrent mixed-database
rounds through one :class:`DiscoveryService`, with the artifact store's
counters proving each database's preprocessing bundle was built exactly
once — every later request is a cache hit over shared immutable state.
The rounds run concurrently on caller threads (``execute()``) or queue
from many client threads for the service's one worker thread.  Rounds
racing over one bundle also fill its executor cache at once, and answer
exactly as they do one after another.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.dataset.catalog import MetadataCatalog
from repro.discovery.candidates import GenerationLimits
from repro.query.kernels import BloomMask
from repro.api import (
    ArtifactStore,
    DiscoveryRequest,
    DiscoveryService,
    demo_requests,
)
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator

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
            limits=STRESS_LIMITS,
        )
        requests = demo_requests(rounds=ROUNDS)
        assert len(requests) >= 8
        assert len({request.database for request in requests}) >= 2
        responses: list = [None] * len(requests)
        barrier = threading.Barrier(len(requests))

        def run(index: int) -> None:
            barrier.wait(timeout=30)
            responses[index] = service.execute(requests[index])

        # One caller thread per request, released together, so every
        # round contends for the same bundles at once.
        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        assert [
            None if response is None else response.status
            for response in responses
        ] == ["ok"] * len(requests)
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

    def test_many_client_threads_share_one_service(self, stress_databases):
        store = ArtifactStore()
        service = DiscoveryService(
            databases=stress_databases,
            store=store,
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


def _answer(response) -> tuple:
    """A response's status, SQL and counters, without timings."""
    stats = {key: value for key, value in response.result.stats.as_dict().items()
             if not key.endswith("seconds")}
    return response.status, response.result.sql(), stats


class TestSharedExecutorCache:
    def test_concurrent_rounds_fill_one_bundle_cache_like_sequential_ones(
        self, mondial_db
    ):
        """8 rounds released together over one built mondial bundle race
        to fill its executor cache; Mondial joins on text names, so they
        fill the same text Bloom masks at once.  Every entry they publish
        must be the one a lone caller computes."""
        catalog = MetadataCatalog.build(mondial_db)
        generator = WorkloadGenerator(mondial_db, seed=13)
        levels = (ResolutionLevel.EXACT, ResolutionLevel.DISJUNCTION)
        requests = [
            DiscoveryRequest("mondial", spec_for_level(
                generator.generate_case(num_columns=3, num_tables=2),
                levels[index % 2], mondial_db, catalog=catalog, seed=index,
            ), request_id=f"r{index}")
            for index in range(8)
        ]

        def service() -> DiscoveryService:
            served = DiscoveryService(
                databases={"mondial": mondial_db}, limits=STRESS_LIMITS
            )
            served.store.warm([mondial_db])
            return served

        one_by_one = service()
        sequential = [one_by_one.execute(request) for request in requests]

        concurrent = service()
        bundle = concurrent.store.get(mondial_db)
        assert not bundle.cache.bloom_masks
        responses: list = [None] * len(requests)
        errors: list = []
        barrier = threading.Barrier(len(requests))

        def run(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                responses[index] = concurrent.execute(requests[index])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(requests))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [_answer(r) for r in responses] == [_answer(r) for r in sequential]
        assert all(r.status == "ok" for r in responses)
        text_masks = [
            mask for mask in bundle.cache.bloom_masks.values()
            if mask is not None and mask.kernel.kind == "text"
        ]
        assert text_masks
        for mask in text_masks:
            every_row = np.ones(len(mask.kernel.keys), dtype=np.bool_)
            alone = BloomMask(mask.kernel, mask._bloom)
            assert np.array_equal(mask.keep(every_row), alone.keep(every_row))
