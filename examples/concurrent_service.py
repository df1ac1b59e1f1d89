"""Concurrent serving: many mixed-database requests, one preprocessing pass.

The paper's demo is an interactive multi-user system (§2.2).  This example
queues N discovery requests across all three bundled databases at the
:class:`~repro.api.DiscoveryService` — first for thread mode's one
worker thread, then for process shards, where every worker process holds
every database and requests cross the boundary as versioned JSON
messages.  The artifact store preprocesses each database once per
process — every other request warm-starts from the shared, immutable
bundle — and the service metrics show the in-flight accounting, latency
distribution and (per-shard) cache counters.
Run with::

    python examples/concurrent_service.py
"""

from __future__ import annotations

from repro.api import ArtifactStore, DiscoveryService, demo_requests
from repro.discovery.candidates import GenerationLimits

ROUNDS = 4          # 4 rounds x 3 databases = 12 queued requests
SHARDS = 2


def serve(shard_mode: str, workers: int) -> None:
    store = ArtifactStore()
    service = DiscoveryService(
        store=store,
        workers=workers,
        queue_size=32,
        shard_mode=shard_mode,
        limits=GenerationLimits(max_candidates=200, max_assignments=400),
    )
    requests = demo_requests(rounds=ROUNDS)
    print(
        f"\n=== shard_mode={shard_mode!r} ===\n"
        f"submitting {len(requests)} requests across "
        f"{len({r.database for r in requests})} databases "
        f"to a {workers}-worker service"
    )

    with service:
        tickets = [service.submit(request, block=True) for request in requests]
        responses = [ticket.result() for ticket in tickets]
        metrics = service.metrics()

    print("responses:")
    for response in responses:
        print(
            f"  [{response.request_id}] {response.database}: "
            f"{response.status}, {response.num_queries} satisfying queries "
            f"(exec {response.execution_seconds * 1000:.0f} ms, "
            f"queued {response.queued_seconds * 1000:.0f} ms)"
        )

    artifacts = metrics.artifacts
    print(
        f"artifact store: {artifacts['builds']} builds for "
        f"{len(artifacts['builds_by_database'])} databases, "
        f"{artifacts['hits']} cache hits"
    )
    if metrics.shards:
        breakdown = ", ".join(
            f"shard {shard_id}: {info['served']} served"
            for shard_id, info in sorted(metrics.shards.items())
        )
        print(f"shards: {breakdown}")
    print(
        f"service: {metrics.completed} completed, {metrics.ok} ok, "
        f"latency mean {metrics.latency_mean_seconds * 1000:.0f} ms / "
        f"p95 {metrics.latency_p95_seconds * 1000:.0f} ms"
    )


def main() -> None:
    serve("thread", workers=1)
    serve("process", workers=SHARDS)


if __name__ == "__main__":
    main()
