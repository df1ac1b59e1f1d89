"""One copy of each appended value's statistics, pinned structurally.

Two artifacts share what they would otherwise store twice:

* each join model reads its key counts from its key columns' relation
  distributions (``_frequencies``) instead of holding equal copies;
* the inverted index keeps one linker from its build through every
  refresh, and pickles it along, so equal column sets are one object.

Both must hold after a build, after 20 refreshes and after a persisted
bundle reloads, and a reloaded index must go on interning what later
deltas add.
"""

from __future__ import annotations

import random

from repro.dataset import Column, Database, DataType
from repro.service.artifacts import ArtifactStore

_WORDS = ["red", "fox", "blue", "owl", "Green", "ANT", "teal", "elk"]


def _words(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))


def _row(rng: random.Random, table_name: str) -> tuple:
    """A row whose values recur across columns and tables: ints and
    whole decimals share terms ("12" and 12.0), and so do words."""
    number = rng.randrange(40)
    if table_name == "Site":
        return (number, _words(rng), float(rng.randrange(40)))
    if table_name == "Unit":
        return (number, rng.randrange(40), _words(rng))
    return (rng.randrange(40), _words(rng), float(rng.randrange(40)))


def _database(rng: random.Random) -> Database:
    database = Database("shared")
    database.create_table("Site", [
        Column("Id", DataType.INT), Column("Name", DataType.TEXT),
        Column("Area", DataType.DECIMAL),
    ])
    database.create_table("Unit", [
        Column("Id", DataType.INT), Column("SiteId", DataType.INT),
        Column("Label", DataType.TEXT),
    ])
    database.create_table("Item", [
        Column("UnitId", DataType.INT), Column("Label", DataType.TEXT),
        Column("Weight", DataType.DECIMAL),
    ])
    database.link("Unit.SiteId", "Site.Id")
    database.link("Item.UnitId", "Unit.Id")
    for table_name in database.table_names:
        database.table(table_name).insert_many(
            _row(rng, table_name) for _ in range(30)
        )
    return database


def _append(rng: random.Random, database: Database) -> None:
    """A few rows into tables in a random order, so terms meet columns
    in another order than the build's."""
    for _ in range(rng.randint(2, 5)):
        table_name = rng.choice(database.table_names)
        database.table(table_name).insert(_row(rng, table_name))


def _assert_one_copy(bundle) -> None:
    models = bundle.models
    assert models.join_models
    for join_model in models.join_models.values():
        foreign_key = join_model.foreign_key
        child = models.relation_models[foreign_key.child_table]
        parent = models.relation_models[foreign_key.parent_table]
        assert join_model._child_counts is child.distribution(
            foreign_key.child_column)._frequencies
        assert join_model._parent_counts is parent.distribution(
            foreign_key.parent_column)._frequencies
    index = bundle.index
    for terms in (index._exact, index._tokens):
        assert len({id(columns) for columns in terms.values()}) == len(
            set(terms.values())
        )


def test_one_copy_after_build_refreshes_and_reload(tmp_path):
    rng = random.Random(4)
    database = _database(rng)
    store = ArtifactStore(persist_dir=tmp_path)
    _assert_one_copy(store.get(database))
    for _ in range(20):
        _append(rng, database)
        bundle = store.refresh(database)
    assert store.stats.refreshes == 20
    assert store.stats.rebuild_fallbacks == 0
    _assert_one_copy(bundle)

    reloaded_store = ArtifactStore(persist_dir=tmp_path)
    loaded = reloaded_store.get(database)
    assert reloaded_store.stats.disk_loads == 1
    assert loaded.key == bundle.key
    _assert_one_copy(loaded)

    # The linker pickled with the index still interns: fold further
    # appends into the loaded bundle's own (private) database copy.
    copy = loaded.database
    for _ in range(5):
        marks = copy.storage_marks()
        _append(rng, copy)
        loaded.index.apply_delta(copy, copy.storage_deltas_since(marks))
    _assert_one_copy(loaded)
