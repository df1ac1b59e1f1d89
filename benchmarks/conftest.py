"""Shared fixtures and report plumbing for the benchmark harness.

Every benchmark module regenerates one experiment of the "Benchmarks"
section of ``docs/performance.md`` (E1-E6 plus ablations and
micro-benchmarks).  Besides
the pytest-benchmark timings, each experiment writes the table it
reproduces to ``<experiment>.txt`` under :data:`REPORT_DIR`, a directory
in the system temp dir, so running the suite never rewrites tracked
files.  ``benchmarks/reports/`` holds committed, dated snapshots of these
tables that the docs link to; refresh one by copying a new run over it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.datasets import load_mondial
from repro.discovery import GenerationLimits, Prism
from repro.evaluation.experiments import build_cases

REPORT_DIR = Path(tempfile.gettempdir()) / "prism-benchmark-reports"

# Bounds keeping every individual benchmark run in the low seconds while
# still exercising hundreds of candidates and filters.
BENCH_LIMITS = GenerationLimits(
    max_candidates=200,
    max_assignments=400,
    max_trees_per_assignment=6,
)


def write_report(name: str, text: str) -> Path:
    """Write an experiment's table to ``REPORT_DIR/<name>.txt``."""
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def mondial_db():
    """The synthetic Mondial database (the paper's evaluation source)."""
    return load_mondial()


@pytest.fixture(scope="session")
def engine(mondial_db):
    """A preprocessed Prism engine over Mondial with benchmark bounds."""
    return Prism(mondial_db, limits=BENCH_LIMITS)


@pytest.fixture(scope="session")
def cases(mondial_db):
    """Ground-truth workload cases synthesised from Mondial (§2.4)."""
    return build_cases(mondial_db, count=3, num_columns=3, num_tables=2, seed=17)
