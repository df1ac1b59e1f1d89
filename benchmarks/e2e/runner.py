"""Run one workload in a closed loop, check its outputs and report metrics.

One run, in a fresh process per workload:

1. make the workload's inputs from the seed (timed as ``data_gen_s``,
   outside every metric);
2. set the service up several times and keep the last one; ``setup_s``
   is the median;
3. closed loop for ``seconds``, then to the end of the pass: each client
   sends its next round only after the previous one answered
   (append-refresh appends a batch of rows first);
4. check the outputs (every round ok, answers equal to the pinned ones,
   sampled rounds equal to a cold in-process engine);
5. print one ``workload metric value unit`` line per metric, and as the
   last line a JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics, or with ``--trace 1`` the
   per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from repro.api import DiscoveryStats, Prism, ServiceError, ServiceOverloaded

from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import WORKLOADS, Round, Workload

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "expected.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
#: Set-ups per run: at least ``SETUP_REPEATS``, more while they add up to
#: less than ``SETUP_MIN_SECONDS`` (a fast set-up is noisy), at most
#: ``MAX_SETUP_REPEATS``.  ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
MAX_SETUP_REPEATS = 25
#: Rounds re-run on a cold in-process engine after the measured phase.
VERIFY_ROUNDS = 4
#: How long past its deadline a ticket may stay unresolved before the
#: round counts as failed.
UNRESOLVED_GRACE_S = 30.0

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layer self times every workload exercises, in ms per set-up
#: (``SETUP_LAYERS``) or per round (``ROUND_LAYERS``).  Layers only some
#: workloads reach (shard RPC, wire codec, delta maintenance, kernels) are
#: reported as call counts in the JSON line (``CALL_COUNTS``) and with
#: their times on the text lines, so that no listed time is 0 by design.
SETUP_LAYERS = (
    "dataset.index.build",
    "dataset.catalog.build",
    "dataset.schema_graph.build",
    "bayesian.train",
)
ROUND_LAYERS = (
    "service.artifacts",
    "discovery.engine.init",
    "discovery.engine",
    "discovery.related_columns",
    "discovery.candidates",
    "discovery.filters",
    "discovery.validation",
    "discovery.scheduler.select",
    "query.planner",
    "query.exists_batch",
    "storage.select_rows",
)
#: Per-round counters from each response's ``DiscoveryStats``.
ROUND_COUNTERS = (
    "validations",
    "implied_outcomes",
    "candidates",
    "filters",
    "joins_performed",
    "bloom_rejections",
    "validation_batches",
    "batched_outcomes",
)
CALL_COUNTS = (
    "service.shard_rpc",
    "query.exists",
    "query.exists_batch",
    "query.kernels.semijoin",
    "storage.select_rows",
    "storage.insert_many",
    "dataset.index.apply_delta",
)

PER_LAYER: dict[str, str] = {
    **{f"{layer}.ms": "ms" for layer in SETUP_LAYERS},
    "service.queue_wait.ms": "ms",
    **{f"{layer}.ms": "ms" for layer in ROUND_LAYERS},
    **{f"{layer}.calls": "count" for layer in CALL_COUNTS},
    "bayesian.failure_probability.calls": "count",
    "query.rows_scanned": "count",
    **{f"round.{name}": "count" for name in ROUND_COUNTERS},
    "query.exists_cache.hit_ratio": "ratio",
    "query.exists_cache.lookups": "count",
    "query.plan_cache.hit_ratio": "ratio",
    "query.plan_cache.lookups": "count",
    "query.join_index.hit_ratio": "ratio",
    "query.join_index.lookups": "count",
    "discovery.validations_per_filter": "ratio",
    "service.artifacts.refreshes": "count",
    "service.artifacts.delta_rows_applied": "count",
    "service.artifacts.rebuild_fallbacks": "count",
    "trace.round_p50_ms": "ms",
    "trace.coverage": "%",
}


@dataclass
class Outcome:
    """What one round sent back, as the client saw it."""

    round: Round
    status: str
    latency_s: float
    append_s: float = 0.0
    queued_s: float = 0.0
    sql: tuple = ()
    stats: Optional[DiscoveryStats] = None


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _one_round(service, round_: Round, deadline_s: float, append=None) -> Outcome:
    append_s = 0.0
    if append is not None:
        started = time.perf_counter()
        append(round_.index)
        append_s = time.perf_counter() - started
    started = time.perf_counter()
    try:
        ticket = service.submit(round_.request, block=True)
    except (ServiceOverloaded, ServiceError):
        return Outcome(round_, "rejected", time.perf_counter() - started, append_s)
    try:
        response = ticket.result(timeout=deadline_s + UNRESOLVED_GRACE_S)
    except ServiceError:
        return Outcome(round_, "unresolved", time.perf_counter() - started, append_s)
    latency = time.perf_counter() - started
    result = response.result
    return Outcome(
        round_,
        response.status,
        latency,
        append_s,
        response.queued_seconds,
        tuple(result.sql()) if result is not None else (),
        result.stats if result is not None else None,
    )


def closed_loop(service, workload: Workload, seconds: float,
                max_rounds: Optional[int] = None) -> tuple[list[Outcome], float, float]:
    """Drive ``workload.clients`` closed-loop clients for ``seconds``,
    then up to the end of the current pass (or for ``max_rounds`` rounds).

    Returns the outcomes in round order and the measured window's start
    and end on the ``perf_counter`` clock.
    """
    rounds = workload.rounds()
    append = workload.append if workload.append_rows else None
    lock = threading.Lock()
    stopped = False
    outcomes: list[Outcome] = []
    errors: list[BaseException] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def next_round() -> Optional[Round]:
        nonlocal stopped
        with lock:
            if not stopped:
                round_ = next(rounds)
                stopped = (
                    (round_.pass_start and time.perf_counter() >= stop_at)
                    or (max_rounds is not None and round_.index >= max_rounds)
                )
            return None if stopped else round_

    def client() -> None:
        try:
            while (round_ := next_round()) is not None:
                outcomes.append(_one_round(service, round_, workload.deadline_s, append))
        except BaseException as exc:  # reported after the join below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, name=f"e2e-client-{index}")
        for index in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    outcomes.sort(key=lambda outcome: outcome.round.index)
    return outcomes, start, end


def percentile(values: list[float], fraction: float) -> float:
    """The Harrell-Davis estimate of a quantile.

    A Beta-weighted mean of all order statistics: it moves a little when
    one round's latency moves, where the nearest-rank percentile jumps to
    the neighbouring rank, which on a mix of cheap and expensive rounds
    can be far away.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = fraction * (n + 1), (1.0 - fraction) * (n + 1)
    # The Beta(a, b) density integrated over [(i - 1) / n, i / n] weighs the
    # i-th smallest value; trapezoids on a grid 64 times finer than 1 / n.
    inner = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_density = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    density = np.concatenate(([0.0], np.exp(log_density - log_density.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    weights = np.diff(cdf[::64]) / cdf[-1]
    return float(weights @ ordered)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of every live child (shards)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def round_hash(outcome: Outcome) -> str:
    """Short digest of one round's answer."""
    return hashlib.sha256(json.dumps(list(outcome.sql)).encode("utf-8")).hexdigest()[:12]


def pin_key(workload: Workload, outcome: Outcome) -> str:
    """What a round's pinned answer is filed under.

    A read-only round's answer depends on its spec alone, so it is pinned
    by round key and checked under every seed.  After appends it also
    depends on the data, which the seed and the round index determine.
    """
    if workload.append_rows:
        return f"{workload.seed}/{outcome.round.index}"
    return outcome.round.key


def run_digest(outcomes: list[Outcome]) -> str:
    """sha256 over ``(round index, SQL)`` of every round, in index order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(json.dumps([outcome.round.index, list(outcome.sql)]).encode("utf-8"))
    return digest.hexdigest()


def load_pins() -> dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pins_key(workload: Workload) -> str:
    """The ``expected.json`` entry of a workload configuration."""
    return f"{workload.name}@{workload_id(workload)}"


def check_pins(workload: Workload, outcomes: list[Outcome]) -> tuple[int, list[str]]:
    """How many rounds have a pinned answer, and the keys of those whose
    answer differs from it."""
    pinned = load_pins().get(pins_key(workload), {})
    checked, mismatches = 0, []
    for outcome in outcomes:
        key = pin_key(workload, outcome)
        if key in pinned:
            checked += 1
            if pinned[key] != round_hash(outcome):
                mismatches.append(key)
    return checked, mismatches


def check_against_cold_engine(service, workload: Workload,
                              outcomes: list[Outcome]) -> tuple[int, list[str]]:
    """Re-run a few rounds on engines built from scratch; returns how many
    were checked and the keys of those whose answers differ.

    Read-only workloads compare the SQL recorded during the run.  After
    appends only the final data state is at hand, so append-refresh sends
    the last rounds again through the service, whose artifacts were
    refreshed delta by delta, and compares those answers.
    """
    if workload.append_rows:
        sample = outcomes[-VERIFY_ROUNDS:]
    else:
        step = max(1, len(outcomes) // VERIFY_ROUNDS)
        sample = outcomes[::step][:VERIFY_ROUNDS]
    limits = workload.service_options.get("limits")
    engines: dict[str, Prism] = {}
    mismatches = []
    for outcome in sample:
        request = outcome.round.request
        if request.database not in engines:
            engines[request.database] = Prism(
                workload.databases[request.database], limits=limits
            )
        expected = engines[request.database].discover(request.spec).sql()
        if workload.append_rows:
            actual = list(_one_round(service, outcome.round, workload.deadline_s).sql)
        else:
            actual = list(outcome.sql)
        if actual != expected:
            mismatches.append(outcome.round.key)
    return len(sample), mismatches


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(setup_s: list[float], outcomes: list[Outcome],
                       wall_s: float, peak_rss_mb: float) -> dict:
    latencies = [outcome.latency_s * 1000.0 for outcome in outcomes]
    return {
        "setup_s": statistics.median(setup_s),
        "round_p50_ms": percentile(latencies, 0.5),
        "round_p90_ms": percentile(latencies, 0.9),
        "rounds_per_s": len(outcomes) / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }


def round_counters(outcomes: list[Outcome], artifacts: dict) -> dict:
    """Per-round means of the response counters, ratios with their bases,
    and the artifact store's maintenance counters."""
    rounds = max(1, len(outcomes))
    totals: Counter = Counter()
    for outcome in outcomes:
        if outcome.stats is None:
            continue
        stats = outcome.stats.as_dict()
        for name in ROUND_COUNTERS:
            totals[name] += stats[name]
        for name in ("exists_cache_hits", "exists_cache_misses", "plan_cache_hits",
                     "plan_cache_builds", "join_index_hits", "join_index_builds"):
            totals[name] += stats[name]

    def ratio(hits: str, other: str) -> tuple[float, float]:
        lookups = totals[hits] + totals[other]
        return (totals[hits] / lookups if lookups else 0.0), lookups / rounds

    metrics = {f"round.{name}": totals[name] / rounds for name in ROUND_COUNTERS}
    for prefix, hits, other in (
        ("query.exists_cache", "exists_cache_hits", "exists_cache_misses"),
        ("query.plan_cache", "plan_cache_hits", "plan_cache_builds"),
        ("query.join_index", "join_index_hits", "join_index_builds"),
    ):
        metrics[f"{prefix}.hit_ratio"], metrics[f"{prefix}.lookups"] = ratio(hits, other)
    metrics["discovery.validations_per_filter"] = (
        totals["validations"] / totals["filters"] if totals["filters"] else 0.0
    )
    metrics["service.artifacts.refreshes"] = artifacts.get("refreshes", 0) / rounds
    metrics["service.artifacts.delta_rows_applied"] = (
        artifacts.get("delta_rows_applied", 0) / rounds
    )
    metrics["service.artifacts.rebuild_fallbacks"] = artifacts.get("rebuild_fallbacks", 0)
    return metrics


def layer_metrics(spans, setup_windows, measured, outcomes: list[Outcome]) -> dict:
    """Self time and calls per layer: per setup for spans inside a setup
    window, per round for spans inside the measured window."""
    rounds = max(1, len(outcomes))
    setups = max(1, len(setup_windows))
    setup_self: Counter = Counter()
    round_self: Counter = Counter()
    round_calls: Counter = Counter()
    round_counts: Counter = Counter()
    for span in spans:
        if measured[0] <= span.start <= measured[1]:
            round_self[span.name] += span.self_s
            round_calls[span.name] += 1
            round_counts.update(span.counts or {})
        elif any(start <= span.start <= end for start, end in setup_windows):
            setup_self[span.name] += span.self_s
    queued_s = sum(outcome.queued_s for outcome in outcomes)
    metrics = {f"{name}.ms": 1000.0 * total / setups for name, total in setup_self.items()
               if name in SETUP_LAYERS or name in ("service.artifacts.build",
                                                    "service.shards.start")}
    for layer in SETUP_LAYERS:
        metrics.setdefault(f"{layer}.ms", 0.0)
    metrics["service.queue_wait.ms"] = 1000.0 * queued_s / rounds
    for name, total in round_self.items():
        metrics[f"{name}.ms"] = 1000.0 * total / rounds
        metrics[f"{name}.calls"] = round_calls[name] / rounds
    metrics["service.artifacts.ms"] = 1000.0 * (
        round_self["service.artifacts.get"] + round_self["service.artifacts.refresh"]
    ) / rounds
    for layer in ROUND_LAYERS:
        metrics.setdefault(f"{layer}.ms", 0.0)
    for layer in CALL_COUNTS:
        metrics.setdefault(f"{layer}.calls", 0.0)
    for name in ("bayesian.failure_probability.calls", "query.rows_scanned",
                 "query.planner.structure_rows.calls"):
        metrics[name] = round_counts[name] / rounds
    # Everything a round waited for: the client-side latency plus the
    # append the client made before it.
    busy_s = sum(outcome.latency_s + outcome.append_s for outcome in outcomes)
    accounted_s = queued_s + sum(round_self.values())
    metrics["trace.coverage"] = 100.0 * accounted_s / busy_s if busy_s else 0.0
    return metrics


# ----------------------------------------------------------------------
# Configuration record
# ----------------------------------------------------------------------
def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def workload_config(workload: Workload) -> dict:
    """What determines a workload's rounds and their answers.

    How the rounds are served (clients, shard mode, storage backend) is
    left out: answers must not depend on it, so a change there keeps the
    configuration's identity and its pinned answers.
    """
    limits = workload.service_options.get("limits")
    return {
        "workload": workload.name,
        "databases": sorted(workload.databases),
        "cases": len(workload.cases),
        "excluded_cases": workload.excluded_cases,
        "levels": [level.value for level in workload.levels],
        "limits": asdict(limits) if limits is not None else None,
        "append_rows": workload.append_rows,
        **workload.config,
    }


def workload_id(workload: Workload) -> str:
    """Content hash of :func:`workload_config`: records of one workload
    configuration line up across seeds, runs and commits."""
    payload = json.dumps(workload_config(workload), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def config_record(workload: Workload, seconds: float, setup_repeats: int) -> dict:
    """The run's configuration, its identity and the environment."""
    service = {"shard_mode": "thread", **workload.service_options}
    service.pop("limits", None)
    return {
        "id": workload_id(workload),
        "config": workload_config(workload),
        "seed": workload.seed,
        "seconds": seconds,
        "setup_repeats": setup_repeats,
        "clients": workload.clients,
        "service": service,
        "backends": {
            name: type(database.backend).__name__
            for name, database in workload.databases.items()
        },
        "env": {
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload: Workload, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, setup_min_s: float = SETUP_MIN_SECONDS,
        max_rounds: Optional[int] = None, data_gen_s: float = 0.0) -> dict:
    """Set up, measure and check ``workload``; returns the run's record."""
    spill_dir = HERE / f".trace-{os.getpid()}"
    tracer = Tracer(spill_dir) if trace else None
    if tracer is not None:
        # Before the first setup, so forked shards inherit the wrappers.
        tracer.install()
    service = None
    setup_s: list[float] = []
    setup_windows = []
    # Like a long-running server after warm-up: keep the collector off the
    # databases and artifacts, so full collections do not land on
    # whichever setups and rounds happen to trigger them.
    gc.collect()
    gc.freeze()
    try:
        while len(setup_s) < setup_repeats or (
            sum(setup_s) < setup_min_s and len(setup_s) < MAX_SETUP_REPEATS
        ):
            if service is not None:
                service.shutdown()
            started = time.perf_counter()
            service = workload.start_service()
            ended = time.perf_counter()
            setup_s.append(ended - started)
            setup_windows.append((started, ended))
        gc.collect()
        gc.freeze()
        outcomes, measured_start, measured_end = closed_loop(
            service, workload, seconds, max_rounds
        )
        peak_rss_mb = _peak_rss_mb()
        artifacts = service.metrics().artifacts
        if tracer is not None:
            tracer.uninstall()  # the output checks below are not measured
        cold_checked, mismatches = check_against_cold_engine(service, workload, outcomes)
    finally:
        gc.unfreeze()
        if service is not None:
            service.shutdown()
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.collect() if tracer is not None else []
    shutil.rmtree(spill_dir, ignore_errors=True)

    failed = [outcome for outcome in outcomes if outcome.status != "ok"]
    pins_checked, pin_mismatches = check_pins(workload, outcomes)
    correct = bool(outcomes) and not failed and not mismatches and not pin_mismatches
    wall_s = measured_end - measured_start
    metrics = end_to_end_metrics(setup_s, outcomes, wall_s, peak_rss_mb)
    extras = {
        "rounds": len(outcomes),
        "p90_samples_beyond": sum(
            1 for outcome in outcomes
            if outcome.latency_s * 1000.0 > metrics["round_p90_ms"]
        ),
        "setups": len(setup_s),
        "measured_s": wall_s,
        "data_gen_s": data_gen_s,
        "failed_frac": len(failed) / max(1, len(outcomes)),
        "failed_statuses": dict(Counter(outcome.status for outcome in failed)),
        "ground_truth_recall": _recall(outcomes),
        "digest": run_digest(outcomes),
        "pinned_checked": pins_checked,
        "pinned_mismatches": pin_mismatches,
        "cold_engine_checked": cold_checked,
        "cold_engine_mismatches": mismatches,
    }
    if tracer is not None:
        extras["trace_missing"] = tracer.missing
    if workload.append_rows:
        extras["append_p50_ms"] = percentile(
            [outcome.append_s * 1000.0 for outcome in outcomes], 0.5
        )
    layers = round_counters(outcomes, artifacts)
    if tracer is not None:
        layers.update(layer_metrics(spans, setup_windows,
                                    (measured_start, measured_end), outcomes))
        layers["trace.round_p50_ms"] = metrics["round_p50_ms"]
    return {
        "workload": workload.name,
        "trace": int(trace),
        **config_record(workload, seconds, setup_repeats),
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "end_to_end": metrics,
        "layers": layers,
        "extras": extras,
        "round_hashes": {pin_key(workload, outcome): round_hash(outcome)
                         for outcome in outcomes},
        "latencies_ms": [outcome.latency_s * 1000.0 for outcome in outcomes],
        "_outcomes": outcomes,
        "_spans": spans,
    }


def _recall(outcomes: list[Outcome]) -> Optional[float]:
    with_truth = [o for o in outcomes if o.round.ground_truth_sql is not None]
    if not with_truth:
        return None
    found = sum(1 for o in with_truth if o.round.ground_truth_sql in o.sql)
    return found / len(with_truth)


def result_line(record: dict) -> dict:
    """The JSON object printed last: the end-to-end metrics untraced, the
    per-layer ones traced."""
    if record["trace"]:
        chosen = {name: (record["layers"].get(name, 0.0), unit)
                  for name, unit in PER_LAYER.items()}
    else:
        chosen = {name: (record["end_to_end"][name], unit)
                  for name, unit in END_TO_END.items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


def text_lines(record: dict) -> list[str]:
    """One ``workload metric value unit`` line per reported number."""
    name = record["workload"]
    lines = [f"{name} {metric} {value!r} {END_TO_END[metric]}"
             for metric, value in record["end_to_end"].items()]
    for metric, value in sorted(record["layers"].items()):
        lines.append(f"{name} {metric} {value!r} {_unit(metric)}")
    for metric, value in record["extras"].items():
        lines.append(f"{name} {metric} {json.dumps(value)} -")
    lines.append(f"{name} config_id {record['id']} -")
    return lines


def _unit(metric: str) -> str:
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return "ms" if metric.endswith(".ms") else "count"


def write_pins(workload: Workload, record: dict) -> None:
    pins = load_pins()
    pins.setdefault(pins_key(workload), {}).update(record["round_hashes"])
    PINS_PATH.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Run one end-to-end workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the run's record as JSON")
    parser.add_argument("--write-pins", action="store_true",
                        help="pin this run's per-round answers in expected.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    data_gen_s = time.perf_counter() - started
    record = run(workload, args.seconds, bool(args.trace), data_gen_s=data_gen_s)
    del record["_outcomes"], record["_spans"]
    for line in text_lines(record):
        print(line)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    if args.write_pins and not record["failed"] and not record["extras"]["cold_engine_mismatches"]:
        write_pins(workload, record)
    print(json.dumps(result_line(record)))
    sys.stdout.flush()
    return 0
