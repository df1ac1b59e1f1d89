"""The project metadata in ``pyproject.toml`` is complete and reaches
setuptools.

``setup.py`` is a bare shim, so a missing or unreadable
``pyproject.toml`` would leave an install named ``UNKNOWN`` with no
dependencies and no ``prism`` script; an undeclared third-party import
would make ``import repro`` fail in a clean environment.
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


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {
        name for name in imported
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert third_party <= declared, (
        f"imported but not declared in pyproject.toml: "
        f"{sorted(third_party - declared)}"
    )
