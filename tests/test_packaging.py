"""The project metadata in ``pyproject.toml`` reaches setuptools.

``setup.py`` is a bare shim, so a missing or unreadable
``pyproject.toml`` would leave an install named ``UNKNOWN`` with no
numpy dependency and no ``prism`` script.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_the_package_name_and_version():
    # pyproject.toml [project] metadata needs setuptools >= 61.
    pytest.importorskip("setuptools", minversion="61")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]
