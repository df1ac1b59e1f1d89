"""Service-layer benchmark: single-thread vs thread-pool vs process shards.

Drives the built-in mixed-database demo workload through the
:class:`~repro.api.DiscoveryService` three ways — synchronously on the
calling thread (``execute``), through the GIL-bound thread pool, and
through the process-shard executor where each worker process owns its
databases outright — over pre-warmed artifact stores, so the numbers
isolate the serving path from preprocessing.  Requests/second for all
three modes are written to ``REPORT_DIR/service_throughput.txt``.

CPython's GIL bounds the thread-pool speedup for this pure-Python
engine; process shards sidestep the GIL entirely, so on a multi-core
host the sharded figure must clear a 2.5x floor over single-thread.
The floor is only asserted when the host actually has >= 4 cores (the
executor cannot out-run the hardware); result equality between the
thread and process executors is asserted unconditionally.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import BENCH_LIMITS, write_report
from repro.api import ArtifactStore, DiscoveryService, demo_requests

ROUNDS = 2  # 2 x 3 databases = 6 requests per measured batch
WORKERS = 4
SCALING_FLOOR = 2.5  # required process-shard speedup over single-thread
MIN_CORES_FOR_FLOOR = 4

_RESULTS: dict[str, object] = {}


@pytest.fixture(scope="module")
def warm_service():
    """A started thread-pool service whose artifact store is already warm."""
    store = ArtifactStore()
    service = DiscoveryService(
        store=store,
        workers=WORKERS,
        queue_size=64,
        limits=BENCH_LIMITS,
    )
    service.start()
    # Warm every bundle so the measured paths are pure serving.
    for request in demo_requests(rounds=1):
        response = service.execute(request)
        assert response.ok
    yield service
    service.shutdown()


@pytest.fixture(scope="module")
def sharded_service():
    """A started process-shard service; shards warm their bundles on start."""
    service = DiscoveryService(
        workers=WORKERS,
        queue_size=64,
        shard_mode="process",
        limits=BENCH_LIMITS,
    )
    service.start()
    yield service
    service.shutdown()


def _requests():
    return demo_requests(rounds=ROUNDS)


def test_bench_service_single_thread(benchmark, warm_service):
    requests = _requests()

    def serve_serially():
        responses = [warm_service.execute(request) for request in requests]
        assert all(response.ok for response in responses)
        return responses

    started = time.perf_counter()
    benchmark.pedantic(serve_serially, rounds=3, iterations=1)
    elapsed = time.perf_counter() - started
    _RESULTS["single_rps"] = (3 * len(requests)) / elapsed
    benchmark.extra_info["requests"] = len(requests)


def test_bench_service_thread_pool(benchmark, warm_service):
    requests = _requests()

    def serve_pooled():
        responses = warm_service.run_batch(requests)
        assert all(response.ok for response in responses)
        return responses

    started = time.perf_counter()
    responses = benchmark.pedantic(serve_pooled, rounds=3, iterations=1)
    elapsed = time.perf_counter() - started
    _RESULTS["pooled_rps"] = (3 * len(requests)) / elapsed
    _RESULTS["thread_sql"] = [response.result.sql() for response in responses]
    benchmark.extra_info["workers"] = WORKERS
    # The artifact store never rebuilt during serving.
    assert warm_service.store.stats.builds == 3


def test_bench_service_process_shards(benchmark, sharded_service):
    requests = _requests()
    assert sharded_service.shard_mode == "process"

    def serve_sharded():
        responses = sharded_service.run_batch(requests)
        assert all(response.ok for response in responses)
        return responses

    started = time.perf_counter()
    responses = benchmark.pedantic(serve_sharded, rounds=3, iterations=1)
    elapsed = time.perf_counter() - started
    _RESULTS["sharded_rps"] = (3 * len(requests)) / elapsed
    _RESULTS["process_sql"] = [response.result.sql() for response in responses]
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpu_cores"] = os.cpu_count()

    # Executor equivalence: the shards return bit-for-bit the same SQL the
    # thread pool does for the same workload.
    if "thread_sql" in _RESULTS:
        assert _RESULTS["process_sql"] == _RESULTS["thread_sql"]

    # Scaling floor: only meaningful when the hardware can parallelize.
    cores = os.cpu_count() or 1
    if cores >= MIN_CORES_FOR_FLOOR and "single_rps" in _RESULTS:
        speedup = _RESULTS["sharded_rps"] / _RESULTS["single_rps"]
        assert speedup >= SCALING_FLOOR, (
            f"process shards reached only {speedup:.2f}x over single-thread "
            f"on {cores} cores (floor: {SCALING_FLOOR}x)"
        )


def test_bench_service_report(benchmark, warm_service, sharded_service):
    needed = {"single_rps", "pooled_rps", "sharded_rps"}
    if not needed <= set(_RESULTS):
        pytest.skip("throughput benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    metrics = warm_service.metrics()
    artifacts = metrics.artifacts
    shard_metrics = sharded_service.metrics()
    cores = os.cpu_count() or 1
    speedup = _RESULTS["sharded_rps"] / _RESULTS["single_rps"]
    floor_note = (
        f">= {SCALING_FLOOR}x floor asserted"
        if cores >= MIN_CORES_FOR_FLOOR
        else f"floor not asserted (< {MIN_CORES_FOR_FLOOR} cores)"
    )
    shard_breakdown = ", ".join(
        f"shard {shard_id}: {info['served']} served"
        for shard_id, info in sorted(shard_metrics.shards.items())
    )
    lines = [
        "Service throughput: execute() vs thread pool vs process shards",
        f"workload: {ROUNDS * 3} mixed-database requests "
        f"(mondial/imdb/nba), {WORKERS} workers, {cores} cpu cores",
        f"single-thread:  {_RESULTS['single_rps']:.1f} requests/s",
        f"thread-pool:    {_RESULTS['pooled_rps']:.1f} requests/s",
        f"process-shards: {_RESULTS['sharded_rps']:.1f} requests/s "
        f"({speedup:.2f}x single-thread; {floor_note})",
        "result equality: thread-pool and process-shard SQL identical",
        f"artifact store (thread pool): {artifacts['builds']} builds, "
        f"{artifacts['hits']} hits (one build per database)",
        f"shards: {shard_breakdown}",
        f"latency (thread pool): mean "
        f"{metrics.latency_mean_seconds * 1000:.1f} ms, "
        f"p95 {metrics.latency_p95_seconds * 1000:.1f} ms",
    ]
    write_report("service_throughput", "\n".join(lines))
