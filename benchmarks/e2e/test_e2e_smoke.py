"""Smoke test of the end-to-end benchmark on tiny inputs.

Each workload runs untraced and traced for a few rounds.  Checked: every
metric ``BENCHMARK.json`` names is emitted with its unit, the output
checks run (and catch a wrong pinned answer), traced spans nest with self
time at most their duration, and tracing changes no answer or counter.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e import compare, runner, workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

TINY = {
    "demo-mixed": lambda seed: workloads.demo_mixed(
        seed, cases_per_shape=1, databases=("mondial",)
    ),
    "synthetic-validate": lambda seed: workloads.synthetic_validate(
        seed, tables=3, rows=300, cases=2
    ),
    "append-refresh": lambda seed: workloads.append_refresh(
        seed, tables=3, rows=300, cases=2, append_rows=10
    ),
}
ROUNDS = 3


def _run(name: str, trace: bool) -> dict:
    return runner.run(TINY[name](seed=0), seconds=0.0, trace=trace,
                      setup_repeats=1, setup_min_s=0.0, max_rounds=ROUNDS)


def _counters(record_outcomes) -> list:
    """Each round's answer and its counters, without timings."""
    return [
        (o.round.index, o.sql, {k: v for k, v in o.stats.as_dict().items()
                                if not k.endswith("seconds")})
        for o in record_outcomes
    ]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric_and_checks_outputs(name, monkeypatch):
    benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert set(TINY) == {w["name"] for w in benchmark["workloads"]}
    plain = _run(name, trace=False)
    assert plain["correct"], plain["extras"]
    assert plain["extras"]["cold_engine_checked"] > 0
    assert plain["attempted"] == ROUNDS and plain["failed"] == 0

    # Pin one round to an answer it cannot give: the traced rerun must
    # report the mismatch and be incorrect.
    wrong_key = next(iter(plain["round_hashes"]))
    wrong_pins = {f"{name}@{plain['id']}": {wrong_key: "0" * 12}}
    monkeypatch.setattr(runner, "load_pins", lambda: wrong_pins)
    traced = _run(name, trace=True)
    assert traced["extras"]["trace_missing"] == []
    assert not traced["correct"]
    assert traced["extras"]["pinned_mismatches"] == [wrong_key]
    assert traced["extras"]["cold_engine_mismatches"] == []

    for record, metrics in ((plain, benchmark["end_to_end"]), (traced, benchmark["per_layer"])):
        line = runner.result_line(record)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {m: v["unit"] for m, v in line["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in metrics
        }
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert all(plain["end_to_end"][m["name"]] > 0 for m in benchmark["end_to_end"])

    # Tracing changes neither answers nor deterministic counters.
    assert traced["round_hashes"] == plain["round_hashes"]
    assert _counters(traced["_outcomes"]) == _counters(plain["_outcomes"])

    spans = {span.id: span for span in traced["_spans"]}
    assert spans
    for span in spans.values():
        assert span.self_s <= span.duration + 1e-9
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.pid == span.pid
            assert parent.start <= span.start and span.end <= parent.end


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [80.0 + i for i in range(10)], "lower", 0.2) == ("gain", 10)
    assert compare.verdict(parent, [130.0 + i for i in range(10)], "lower", 0.2)[0] == "regression"
    assert compare.verdict(parent, [104.0 - i for i in range(10)], "lower", 0.2)[0] == "ok"
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(parent, noisy, "higher", 0.2)[0] == "unresolved"
