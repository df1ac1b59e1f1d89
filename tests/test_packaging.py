"""The project metadata in ``pyproject.toml`` is complete and reaches
setuptools.

``setup.py`` is a bare shim, so a missing or unreadable
``pyproject.toml`` would leave an install named ``UNKNOWN`` with no
dependencies and no ``prism`` script; an undeclared third-party import
would make ``import repro`` fail in a clean environment, and one in the
tests would stop the tier-1 suite at collection.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
#: Top-level packages of this checkout, never third-party.
LOCAL_PACKAGES = frozenset({"repro", "tests", "benchmarks"})


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


def _names(requirements: list[str]) -> set[str]:
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in requirements
    }


def _third_party_imports(*directories: str) -> set[str]:
    imported = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(
                        alias.name.split(".")[0] for alias in node.names
                    )
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    return {
        name for name in imported
        if name not in sys.stdlib_module_names and name not in LOCAL_PACKAGES
    }


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    undeclared = _third_party_imports("src") - declared
    assert not undeclared, (
        f"src/ imports but pyproject.toml does not declare: "
        f"{sorted(undeclared)}"
    )
    # The suites may also import the `test` extra.
    declared |= _names(project["optional-dependencies"]["test"])
    undeclared = _third_party_imports("tests", "benchmarks") - declared
    assert not undeclared, (
        f"tests/ or benchmarks/ import but neither the dependencies nor "
        f"the `test` extra declare: {sorted(undeclared)}"
    )
