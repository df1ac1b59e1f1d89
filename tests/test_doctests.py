"""Tier-1 doctest wiring for the key public entry points.

The docstring examples on :class:`~repro.discovery.engine.Prism`,
:class:`~repro.constraints.spec.MappingSpec`,
:class:`~repro.api.ArtifactStore` and
:class:`~repro.api.DiscoveryService` double as the documentation's
quickstart snippets (see ``docs/``); this module executes them on every
test run so they can never drift from the API.  CI additionally runs the
same modules through ``pytest --doctest-modules`` in the ``docs`` job.
"""

from __future__ import annotations

import doctest

import pytest

import repro.constraints.spec
import repro.discovery.engine
import repro.service.artifacts
import repro.service.service

DOCTESTED_MODULES = [
    repro.constraints.spec,
    repro.discovery.engine,
    repro.service.artifacts,
    repro.service.service,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module.__name__}"
    )
    # Each of these modules is required to carry runnable examples; a
    # zero here means the docstring example was deleted, not that it
    # passed.
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
