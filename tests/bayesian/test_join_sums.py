"""Join models' running sums against a cold fit.

A trained :class:`JoinIndicatorModel` counts no keys of its own: it reads
its key columns' distribution frequencies and keeps three integer sums
(join size, matched child rows, matched parent rows).  An append folds
into the distributions first, then updates the sums for the keys it
touched.  Following the equivalence-coverage rule of *Test Coverage for
Network Configurations* (PAPERS.md), every test here folds appends
through the refresh path (:meth:`BayesianModelSet.apply_delta` over
storage deltas) and compares the sums and the four probabilities with
``==`` against :meth:`JoinIndicatorModel.fit` on the grown database.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.bayesian.join_indicator import JoinIndicatorModel
from repro.bayesian.training import train_models
from repro.dataset import Column, Database, DataType
from repro.datasets import generate_synthetic_database

_SUMS = ("_join_size", "_matched_child_rows", "_matched_parent_rows")
_FLOATS = ("join_probability", "expected_join_size",
           "child_match_fraction", "parent_match_fraction")

_NAMES = ["North", "north", " NORTH", "North  ", "South", "south ", "EAST",
          "West", None]


def _keys_database() -> Database:
    """Three edges over awkward keys: an INT child against a DECIMAL
    parent (5 and 5.0 both normalize to "5"), text keys that differ only
    in case or padding, NULL keys, dangling child keys and parents
    without children."""
    database = Database("keys")
    database.create_table("Depot", [
        Column("Code", DataType.DECIMAL), Column("Town", DataType.TEXT),
    ])
    database.create_table("Parcel", [
        Column("Depot", DataType.INT), Column("Note", DataType.TEXT),
    ])
    database.create_table("Region", [Column("Name", DataType.TEXT)])
    database.create_table("Office", [
        Column("Region", DataType.TEXT), Column("Staff", DataType.INT),
    ])
    database.link("Parcel.Depot", "Depot.Code")
    database.link("Office.Region", "Region.Name")
    database.link("Depot.Town", "Region.Name")
    database.table("Depot").insert_many([
        (5.0, "North"), (6.0, " north "), (7.0, None), (8, "EAST"),
    ])
    database.table("Parcel").insert_many([
        (5, "five"), (None, "no depot"), (9, "dangling"), (5, "again"),
    ])
    database.table("Region").insert_many([("North",), ("SOUTH",), ("East",)])
    database.table("Office").insert_many([("north", 3), ("  South", 4),
                                          (None, 1)])
    return database


def _assert_equals_cold_fit(database: Database, model_set) -> None:
    assert model_set.join_models
    for key, got in model_set.join_models.items():
        want = JoinIndicatorModel.fit(database, got.foreign_key)
        for name in _SUMS + _FLOATS + ("_child_rows", "_parent_rows"):
            assert getattr(got, name) == getattr(want, name), (key, name)


def _fold(database: Database, model_set, marks: dict) -> dict:
    """Fold every append since ``marks`` into ``model_set``; returns the
    new marks."""
    deltas = database.storage_deltas_since(marks)
    assert deltas is not None
    model_set.apply_delta(database, deltas)
    return {**marks, **{name: delta.new_mark for name, delta in deltas.items()}}


def _append(rng: random.Random, database: Database, table_name: str) -> None:
    table = database.table(table_name)
    for _ in range(rng.randint(1, 4)):
        if table_name == "Depot":
            table.insert((float(rng.randrange(4, 16)), rng.choice(_NAMES)))
        elif table_name == "Parcel":
            table.insert((rng.choice([None, *range(3, 18)]), "parcel"))
        elif table_name == "Region":
            table.insert((rng.choice(_NAMES[:-1]),))
        else:
            table.insert((rng.choice(_NAMES), rng.randrange(1, 9)))


class TestSumsEqualColdFit:
    def test_trained_sums_equal_fit(self):
        database = _keys_database()
        _assert_equals_cold_fit(database, train_models(database))

    @pytest.mark.parametrize("seed", [1, 7, 23, 58])
    def test_seeded_random_appends(self, seed):
        rng = random.Random(seed)
        database = _keys_database()
        model_set = train_models(database)
        marks = database.storage_marks()
        tables = database.table_names
        for _ in range(30):
            # One side only, both sides, or several edges at once.
            for table_name in rng.sample(tables, rng.randint(1, len(tables))):
                _append(rng, database, table_name)
            marks = _fold(database, model_set, marks)
            _assert_equals_cold_fit(database, model_set)

    def test_scripted_edge_cases(self):
        database = _keys_database()
        model_set = train_models(database)
        marks = database.storage_marks()
        depot = model_set.join_models[("Parcel", "Depot", "Depot", "Code")]
        steps = [
            # A dangling child key; its parent arrives two deltas later.
            ("Parcel", [(42, "waiting"), (42, "waiting too")]),
            # A parent no child references.
            ("Depot", [(99.0, "West")]),
            ("Depot", [(42.0, "north")]),
            # NULL keys only: row counts move, no key does.
            ("Parcel", [(None, "x"), (None, "y")]),
            # INT 5 against DECIMAL 5.0, on the child side only.
            ("Parcel", [(5, "five again")]),
            # Text keys differing only in case and padding, one side each.
            ("Office", [(" NORTH ", 2), ("south", 5)]),
            ("Region", [("  north",), ("WEST",)]),
        ]
        for table_name, rows in steps:
            database.table(table_name).insert_many(rows)
            marks = _fold(database, model_set, marks)
            _assert_equals_cold_fit(database, model_set)
        # Parcel keys 5, 5, 5, 42, 42 join one depot each; 9 dangles.
        assert depot._join_size == 5
        assert depot._matched_child_rows == 5
        assert depot._matched_parent_rows == 2

    def test_empty_side_then_appends(self):
        database = Database("empty")
        database.create_table("P", [Column("k", DataType.TEXT)])
        database.create_table("C", [Column("fk", DataType.TEXT)])
        database.link("C.fk", "P.k")
        model_set = train_models(database)
        marks = database.storage_marks()
        (model,) = model_set.join_models.values()
        assert model.join_probability == 0.0
        database.table("C").insert(("a",))
        marks = _fold(database, model_set, marks)
        _assert_equals_cold_fit(database, model_set)
        database.table("P").insert_many([("A",), ("b",)])
        marks = _fold(database, model_set, marks)
        _assert_equals_cold_fit(database, model_set)
        assert model.join_probability == 1 / 2


_SYNTHETIC = ("chain", "star", "random")


class TestSharedCounts:
    @pytest.mark.parametrize(
        "name", ["mondial", "imdb", "nba", *(f"synthetic-{t}" for t in _SYNTHETIC)]
    )
    def test_shared_maps_equal_fits_own_counts(self, name, request):
        if name.startswith("synthetic-"):
            database = generate_synthetic_database(
                5, 400, topology=name.partition("-")[2], seed=3, skew=1.1,
                dangling_fk_fraction=0.3, name=name,
            )
        else:
            database = request.getfixturevalue(f"{name}_db")
        model_set = train_models(database)
        assert model_set.join_models
        for got in model_set.join_models.values():
            foreign_key = got.foreign_key
            child = model_set.relation_models[foreign_key.child_table]
            parent = model_set.relation_models[foreign_key.parent_table]
            assert got._child_counts is child.distribution(
                foreign_key.child_column)._frequencies
            assert got._parent_counts is parent.distribution(
                foreign_key.parent_column)._frequencies
            want = JoinIndicatorModel.fit(database, foreign_key)
            assert dict(got._child_counts) == dict(want._child_counts)
            assert dict(got._parent_counts) == dict(want._parent_counts)
        _assert_equals_cold_fit(database, model_set)


class _CountingCounts(Counter):
    """A counter that counts every key it hands out or looks up."""

    reads = 0

    def __getitem__(self, key):
        _CountingCounts.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        _CountingCounts.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        _CountingCounts.reads += 1
        return super().__contains__(key)

    def __iter__(self):
        for key in super().__iter__():
            _CountingCounts.reads += 1
            yield key

    def keys(self):
        return iter(self)

    def items(self):
        for item in super().items():
            _CountingCounts.reads += 1
            yield item

    def values(self):
        for _, value in self.items():
            yield value


def _reads_for_one_delta(rows: int) -> int:
    """Key reads of one 50-row append folded into models of a
    ``rows``-row parent and a ``rows``-row child."""
    database = Database(f"scale{rows}")
    database.create_table("P", [Column("id", DataType.INT)])
    database.create_table("C", [Column("pid", DataType.INT)])
    database.link("C.pid", "P.id")
    database.table("P").insert_many((key,) for key in range(rows))
    database.table("C").insert_many((key % 1_000,) for key in range(rows))
    model_set = train_models(database)
    marks = database.storage_marks()
    wrapped: dict[int, _CountingCounts] = {}

    def counting(counts):
        if id(counts) not in wrapped:
            wrapped[id(counts)] = _CountingCounts(counts)
        return wrapped[id(counts)]

    for relation_model in model_set.relation_models.values():
        for distribution in relation_model._distributions.values():
            distribution._frequencies = counting(distribution._frequencies)
    for join_model in model_set.join_models.values():
        join_model._child_counts = counting(join_model._child_counts)
        join_model._parent_counts = counting(join_model._parent_counts)
    # 40 child rows on existing keys, 10 parents with new keys.
    database.table("C").insert_many((key,) for key in range(40))
    database.table("P").insert_many((rows + key,) for key in range(10))
    _CountingCounts.reads = 0
    _fold(database, model_set, marks)
    reads = _CountingCounts.reads
    _assert_equals_cold_fit(database, model_set)
    return reads


def test_a_delta_reads_as_many_keys_at_any_table_size():
    """O(delta), pinned by a count: a 50-row append reads the same number
    of keys from the count maps on 5k-row tables as on 50k-row ones."""
    small = _reads_for_one_delta(5_000)
    assert 0 < small < 500
    assert _reads_for_one_delta(50_000) == small
