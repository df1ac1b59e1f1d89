"""Compare two sets of run records: ``python -m benchmarks.e2e compare``.

    python -m benchmarks.e2e compare --parent parent-*.json --change change-*.json

Each file is a record written by ``--out``.  Records are paired in the
order given (run them alternating, parent first in half of the pairs).
One row per (workload, end-to-end metric) states a verdict:

* ``gain`` -- at least ``MIN_PAIRS`` pairs, the change wins at least 9 in
  10 of them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* ``ok`` -- none of the above: no regression beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """The verdict for one metric, and how many pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gap > p_q3 - p_q1:
        return "gain", wins
    if -gap > bound * abs(p_med):
        return "regression", wins
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "ok", wins


def _end_to_end(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced records' end-to-end metrics, by workload, in the order given."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record["end_to_end"])
    return by_workload


def compare(parent_paths: list[Path], change_paths: list[Path],
            benchmark: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    parent = _end_to_end(parent_paths)
    change = _end_to_end(change_paths)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_values = [run[name] for run in parent[workload]]
            c_values = [run[name] for run in change[workload]]
            outcome, wins = verdict(p_values, c_values, metric["better"], metric["bound"])
            p_med, c_med = statistics.median(p_values), statistics.median(c_values)
            rows.append({
                "workload": workload, "metric": name,
                "parent": quartiles(p_values), "change": quartiles(c_values),
                "delta": (c_med - p_med) / p_med if p_med else 0.0,
                "bound": metric["bound"],
                "wins": f"{wins}/{min(len(p_values), len(c_values))}",
                "verdict": outcome,
            })
    return rows


def _cell(spread: tuple[float, float, float]) -> str:
    q1, median, q3 = spread
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e compare",
        description="Compare parent and change run records metric by metric.",
    )
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, benchmark)
    print(f"{'workload':<19} {'metric':<13} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'delta':>7} {'bound':>5} {'wins':>5}  verdict")
    for row in rows:
        print(f"{row['workload']:<19} {row['metric']:<13} {_cell(row['parent']):<28} "
              f"{_cell(row['change']):<28} {row['delta']:>+7.1%} {row['bound']:>5.0%} "
              f"{row['wins']:>5}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0
