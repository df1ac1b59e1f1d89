"""Dangling join keys of every kind: the semijoin sweep alone decides
each existence probe.

No pre-filter stands ahead of the sweep, so every probe over a child
whose key no parent holds is decided by folding the edge.  Over random
parent/child pairs of each key kind — ints, floats with NaN, ±0.0 and
±inf, booleans, text keys that differ only in case or a trailing space,
dates, and ints beyond int64 (object columns) — with NULL keys and keys
no parent holds:

* the edge's ``keep_existing`` keeps exactly the child rows a
  membership loop keeps, with every parent row and under random parent
  masks;
* ``Executor.exists`` over one child's label answers what the loop
  answers for that child, and each such probe folds the one edge;
* a probe decided ``False`` on a dangling key turns ``True`` on the same
  executor once the parent arrives, for array- and text-coded keys.
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
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.query.executor import Executor
from repro.query.kernels import EdgeKernel
from repro.query.pj_query import ProjectJoinQuery

FAMILY = ProjectJoinQuery(
    (ColumnRef("Child", "label"), ColumnRef("Parent", "name")),
    (ForeignKey("Child", "parent", "Parent", "key"),),
)

_TYPES = {"int": DataType.INT, "float": DataType.DECIMAL,
          "bool": DataType.BOOLEAN, "text": DataType.TEXT,
          "date": DataType.DATE, "huge": DataType.INT}


def _pool(kind: str) -> list:
    if kind == "int":
        return list(range(-20, 60))
    if kind == "float":
        return [0.0, -0.0, 1.5, -2.25, 3.0, 1e18, math.nan, math.inf,
                *(float(i) for i in range(30))]
    if kind == "bool":
        return [True, False]
    if kind == "text":
        return [f"key {i}" for i in range(60)] + ["Key 1", "key 1 "]
    if kind == "date":
        return [dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(60)]
    return [10**400, -(10**400), *range(40)]  # huge: an object INT column


def _keys(kind: str, pool: list, rng: random.Random, count: int) -> list:
    values = [None if rng.random() < 0.2 else rng.choice(pool)
              for __ in range(count)]
    # One key beyond int64 promotes the whole column to object storage.
    return [10**400, *values] if kind == "huge" else values


def _family(kind: str, rng: random.Random) -> tuple[Database, list, list]:
    """A Parent/Child pair linked on keys of ``kind``: the parents hold a
    random part of the pool, so some child keys dangle."""
    pool = _pool(kind)
    parent_keys = _keys(kind, rng.sample(pool, rng.randint(1, len(pool))),
                        rng, rng.randint(1, 40))
    child_keys = _keys(kind, pool, rng, rng.randint(1, 300))
    database = Database("dangling")
    database.create_table(
        "Parent", [Column("key", _TYPES[kind]), Column("name", DataType.TEXT)]
    ).insert_many((key, f"parent {i}") for i, key in enumerate(parent_keys))
    database.create_table(
        "Child", [Column("parent", _TYPES[kind]), Column("label", DataType.TEXT)]
    ).insert_many((key, f"child {i}") for i, key in enumerate(child_keys))
    database.link("Child.parent", "Parent.key")
    return database, parent_keys, child_keys


def _loop_keeps(child_keys: list, parent_keys: list, parent_mask) -> list:
    """Child rows whose key equals a kept parent's key; NULL and NaN
    equal nothing."""
    live = [key for key, kept in zip(parent_keys, parent_mask)
            if kept and key is not None]
    return [key is not None and any(key == other for other in live)
            for key in child_keys]


@pytest.mark.parametrize("kind", sorted(_TYPES))
@pytest.mark.parametrize("seed", range(8))
def test_the_sweep_keeps_the_rows_a_membership_loop_keeps(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    database, parent_keys, child_keys = _family(kind, rng)
    child = database.table("Child").backend.column_kernel("Child", 0)
    parent = database.table("Parent").backend.column_kernel("Parent", 0)
    assert child.kind == {"text": "text", "date": "object",
                          "huge": "object"}.get(kind, "array")
    edge = EdgeKernel(child, parent)

    every_parent = [True] * len(parent_keys)
    expected = _loop_keeps(child_keys, parent_keys, every_parent)
    assert edge.keep_existing(None).tolist() == expected
    for __ in range(5):
        mask = np.array([rng.random() < 0.5 for __ in parent_keys],
                        dtype=np.bool_)
        assert edge.keep_existing(mask).tolist() == _loop_keeps(
            child_keys, parent_keys, mask.tolist()
        )

    executor = Executor(database, MetadataCatalog.build(database))
    for row in rng.sample(range(len(child_keys)), min(12, len(child_keys))):
        joins = executor.stats.joins_performed
        probe = {0: ExactValue(f"child {row}")}
        assert executor.exists(FAMILY, probe) == expected[row]
        assert executor.stats.joins_performed == joins + 1


def _orphan_family(key_type: DataType, keys: list) -> Database:
    database = Database("late")
    database.create_table(
        "Parent", [Column("key", key_type), Column("name", DataType.TEXT)]
    ).insert_many((key, f"parent {key}") for key in keys[:3])
    # The last key is dangling: no parent holds it yet.
    database.create_table(
        "Child", [Column("parent", key_type), Column("label", DataType.TEXT)]
    ).insert_many((key, "orphan" if key == keys[3] else "kept")
                  for key in keys)
    database.link("Child.parent", "Parent.key")
    return database


@pytest.mark.parametrize(
    "key_type, keys",
    [(DataType.INT, [1, 2, 3, 99]),
     (DataType.TEXT, ["a", "b", "c", "late"])],
    ids=["array", "text"],
)
def test_a_dangling_probe_sees_its_parent_once_it_arrives(key_type, keys):
    database = _orphan_family(key_type, keys)
    catalog = MetadataCatalog.build(database)
    executor = Executor(database, catalog)
    orphan = {0: ExactValue("orphan")}
    assert not executor.exists(FAMILY, orphan)
    assert executor.stats.joins_performed == 1

    # Only the parent side grows, so the child column's kernel stays the
    # same object; the edge over it must still be rebuilt.
    child_kernel = database.table("Child").backend.column_kernel("Child", 0)
    marks = database.storage_marks()
    database.table("Parent").insert((keys[3], "late parent"))
    catalog.apply_delta(database, database.storage_deltas_since(marks))
    assert database.table("Child").backend.column_kernel("Child", 0) is child_kernel

    assert executor.exists(FAMILY, orphan)
    assert executor.stats.joins_performed == 2
