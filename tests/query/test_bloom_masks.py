"""Bloom membership masks: the executor's Bloom pre-filter decides each
key once per column, not once per call.

* :class:`~repro.query.kernels.BloomMask` keeps exactly the rows a
  per-row ``bloom.might_contain`` loop keeps, on array, text and object
  column kernels, however many calls fill a text mask;
* the executor's cached masks never outlive the artifact key they were
  built under: when the catalog folds a delta that adds parent keys, a
  probe on the same executor sees them.
"""

from __future__ import annotations

import datetime as dt
import math
import random

import numpy as np
import pytest

from repro.constraints.values import ExactValue
from repro.dataset import Column, Database, DataType
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef
from repro.dataset.sketches import BloomFilter
from repro.query.executor import Executor
from repro.query.kernels import BloomMask
from repro.query.pj_query import ProjectJoinQuery


def _values(kind: str, rng: random.Random) -> list:
    if kind == "int":
        pool = list(range(-20, 60))
    elif kind == "float":
        pool = [0.0, -0.0, 1.5, -2.25, 3.0, 1e18, math.nan, math.inf,
                *(float(i) for i in range(30))]
    elif kind == "bool":
        pool = [True, False]
    elif kind == "text":
        pool = [f"key {i}" for i in range(60)] + ["Key 1", "key 1 "]
    elif kind == "date":
        pool = [dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(60)]
    else:  # huge: an INT column promoted to object storage
        pool = [10**400, -(10**400), *range(40)]
    values = [None if rng.random() < 0.2 else rng.choice(pool)
              for __ in range(rng.randint(1, 300))]
    return [10**400, *values] if kind == "huge" else values


_TYPES = {"int": DataType.INT, "float": DataType.DECIMAL,
          "bool": DataType.BOOLEAN, "text": DataType.TEXT,
          "date": DataType.DATE, "huge": DataType.INT}


@pytest.mark.parametrize("kind", sorted(_TYPES))
@pytest.mark.parametrize("seed", range(8))
def test_mask_keeps_the_rows_a_might_contain_loop_keeps(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    database = Database("bloom")
    table = database.create_table("T", [Column("k", _TYPES[kind])])
    values = _values(kind, rng)
    table.insert_many((value,) for value in values)
    kernel = table.backend.column_kernel("T", 0)
    assert kernel.kind == {"text": "text", "date": "object",
                           "huge": "object"}.get(kind, "array")
    # A small filter over part of the values: present keys, absent keys
    # and false positives all occur.
    bloom = BloomFilter(rng.choice([256, 1024]), rng.choice([1, 3, 7]))
    for value in rng.sample(values, len(values) // 3):
        if value is not None:
            bloom.add_value(value)
    mask = BloomMask(kernel, bloom)
    for __ in range(5):
        selection = np.array(
            [rng.random() < 0.5 for __ in values], dtype=np.bool_
        )
        expected = [
            selected and value is not None and bloom.might_contain(value)
            for selected, value in zip(selection.tolist(), values)
        ]
        kept = mask.keep(selection)
        assert kept.tolist() == expected
        assert not kept[~selection].any()


def _parent_child(key_type: DataType, keys: list) -> Database:
    database = Database("bloomkeys")
    parent = database.create_table(
        "Parent", [Column("key", key_type), Column("name", DataType.TEXT)]
    )
    child = database.create_table(
        "Child", [Column("parent", key_type), Column("label", DataType.TEXT)]
    )
    parent.insert_many((key, f"parent {key}") for key in keys[:3])
    # The last key is dangling: no parent holds it yet.
    child.insert_many((key, "orphan" if key == keys[3] else "kept")
                      for key in keys)
    database.link("Child.parent", "Parent.key")
    return database


@pytest.mark.parametrize(
    "key_type, keys",
    [(DataType.INT, [1, 2, 3, 99]),
     (DataType.TEXT, ["a", "b", "c", "late"])],
    ids=["array", "text"],
)
def test_mask_does_not_outlive_the_artifact_key(key_type, keys):
    database = _parent_child(key_type, keys)
    catalog = MetadataCatalog.build(database)
    executor = Executor(database, catalog)
    query = ProjectJoinQuery(
        (ColumnRef("Child", "label"), ColumnRef("Parent", "name")),
        tuple(database.foreign_keys),
    )
    orphan = {0: ExactValue("orphan")}
    assert not executor.exists(query, orphan)
    # The Bloom pre-filter, not the sweep, decided it: the mask is cached.
    assert executor.stats.bloom_rejections == 1

    # Only the parent side grows, so the child column's kernel (the one
    # the mask was built over) stays the same object.
    child_kernel = database.table("Child").backend.column_kernel("Child", 0)
    marks = database.storage_marks()
    database.table("Parent").insert((keys[3], "late parent"))
    catalog.apply_delta(
        database, database.storage_deltas_since(marks), database.artifact_key()
    )
    assert database.table("Child").backend.column_kernel("Child", 0) is child_kernel

    assert executor.exists(query, orphan)
    assert executor.stats.bloom_rejections == 1
