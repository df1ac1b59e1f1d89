"""Each value constraint computes its hash once, and keeps it to itself.

Constraints hash by typed content, and the executor and the validator
look them up in dicts many times per round, so each object caches its
hash in a ``_hash`` slot.  ``str`` hashes differ under each
``PYTHONHASHSEED``, so a cached hash must never travel: a copy or a
pickle carries the content only, and hashes afresh where it lands.  The
last test pickles a spec under one hash seed and looks its constraints
up under another, in two fresh interpreters.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
    ValueConstraint,
)

_SRC = Path(__file__).resolve().parents[2] / "src"


def _constraints() -> list[ValueConstraint]:
    """One constraint of every kind, most over text, built afresh."""
    return [
        ExactValue("Lake Tahoe"),
        ExactValue(42),
        OneOf(["California", "Nevada"]),
        Range(400, 600),
        Range("a", "m", low_inclusive=False),
        Predicate(">=", 0),
        Predicate("!=", "Oregon"),
        Conjunction([Range(1, 10), Predicate("!=", 5)]),
        Disjunction([ExactValue("Crater Lake"), OneOf(["Oregon", "Idaho"])]),
        AnyValue(),
    ]


def test_equal_constraints_hash_equal():
    for cached, fresh in zip(_constraints(), _constraints()):
        first = hash(cached)
        assert hash(cached) == first
        assert cached == fresh and cached is not fresh
        assert hash(fresh) == first


def test_unequal_content_stays_apart():
    values = [ExactValue(1), ExactValue(True), ExactValue(1.0), ExactValue("1")]
    assert len({*values}) == 4
    assert Range(1, 2) != Range(1, 2, high_inclusive=False)


def test_constraints_hold_no_instance_dict():
    for constraint in _constraints():
        hash(constraint)
        assert not hasattr(constraint, "__dict__"), type(constraint).__name__


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy]
    + [
        lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ],
    ids=["copy", "deepcopy"]
    + [f"pickle{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_copies_and_pickles_carry_no_cached_hash(duplicate):
    for constraint in _constraints():
        expected = hash(constraint)
        twin = duplicate(constraint)
        assert twin is not constraint
        assert not hasattr(twin, "_hash"), type(constraint).__name__
        assert twin == constraint
        assert hash(twin) == expected
        assert twin.describe() == constraint.describe()


def test_a_subclass_without_slots_keeps_its_attributes():
    class Tagged(ExactValue):
        def __init__(self, value, tag):
            super().__init__(value)
            self.tag = tag

    tagged = Tagged("Lake Tahoe", "user")
    hash(tagged)
    twin = copy.copy(tagged)
    assert twin.tag == "user" and twin.value == "Lake Tahoe"
    assert not hasattr(twin, "_hash")


_DUMP = """
import pickle
import sys

from repro import MappingSpec
from repro.constraints.values import (
    Conjunction, Disjunction, ExactValue, OneOf, Predicate, Range,
)

spec = MappingSpec(num_columns=3)
spec.add_sample_cells([
    OneOf(["California", "Nevada"]), ExactValue("Lake Tahoe"), Range("a", "m"),
])
spec.add_sample_cells([
    Disjunction([ExactValue("Oregon"), Predicate("==", "Idaho")]),
    Conjunction([Predicate(">=", "C"), Predicate("!=", "Crater Lake")]),
    None,
])
# Every constraint computes and caches its hash under this seed.
seen = {cell: index for index, cell in enumerate(
    cell for sample in spec.samples for cell in sample.cells if cell is not None
)}
assert len(seen) == 5
with open(sys.argv[1], "wb") as handle:
    pickle.dump(spec, handle)
"""

_LOAD = """
import pickle
import sys

from repro.constraints.values import (
    Conjunction, Disjunction, ExactValue, OneOf, Predicate, Range,
)

with open(sys.argv[1], "rb") as handle:
    spec = pickle.load(handle)
fresh = [
    OneOf(["California", "Nevada"]), ExactValue("Lake Tahoe"), Range("a", "m"),
    Disjunction([ExactValue("Oregon"), Predicate("==", "Idaho")]),
    Conjunction([Predicate(">=", "C"), Predicate("!=", "Crater Lake")]),
]
entries = {constraint: index for index, constraint in enumerate(fresh)}
loaded = [cell for sample in spec.samples for cell in sample.cells if cell is not None]
print([entries.get(cell) for cell in loaded])
"""


def _python(code: str, hash_seed: str, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(_SRC))
    process = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout.strip()


def test_a_spec_pickled_under_one_hash_seed_is_found_under_another(tmp_path):
    path = str(tmp_path / "spec.pickle")
    _python(_DUMP, "1", path)
    assert _python(_LOAD, "2", path) == "[0, 1, 2, 3, 4]"
