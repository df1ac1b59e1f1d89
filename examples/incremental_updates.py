"""Incremental artifact maintenance: append rows, refresh, re-discover.

Preprocessing (inverted index, metadata catalog, schema graph, Bayesian
models) is built once per database state.  When the database then grows,
:meth:`~repro.api.ArtifactStore.refresh` folds the appended rows into
the cached bundle instead of rebuilding it — so discovery over a live,
mutating database keeps its interactive budget.  This example inserts a
new NBA player, refreshes, and shows the new row being discovered with
zero rebuilds; it then drops a table to demonstrate the counted fallback
to a full rebuild.  See ``docs/incremental.md``.  Run with::

    python examples/incremental_updates.py
"""

from __future__ import annotations

from repro import MappingSpec, Prism, load_nba
from repro.constraints import parse_value_constraint
from repro.api import ArtifactStore


def _discover(bundle, keyword: str):
    spec = MappingSpec(num_columns=2)
    spec.add_sample_cells([parse_value_constraint(keyword), None])
    return Prism.from_artifacts(bundle).discover(spec)


def main() -> None:
    database = load_nba()
    store = ArtifactStore()

    bundle = store.get(database)  # the one cold build in this example
    print(f"cold build: key={bundle.key.data_version}")

    result = _discover(bundle, "Fiona Birch")
    print(f"before insert: {result.num_queries} satisfying queries "
          "for 'Fiona Birch' (she is not in the roster yet)")

    # The roster grows — one append, no rebuild.
    database.table("Player").insert(
        (901, "Fiona Birch", "Lakers", "PG", 178, 19.5)
    )
    bundle = store.refresh(database)
    stats = store.stats
    print(f"after refresh: builds={stats.builds}, refreshes={stats.refreshes}, "
          f"delta_rows_applied={stats.delta_rows_applied}")

    result = _discover(bundle, "Fiona Birch")
    print(f"after refresh: {result.num_queries} satisfying queries "
          "for 'Fiona Birch'")
    for sql in result.sql()[:3]:
        print(f"  {sql}")

    # A schema change cannot be expressed as an append delta: refresh
    # falls back to a counted full rebuild and still serves correctly.
    database.drop_table("Game")
    bundle = store.refresh(database)
    stats = store.stats
    print(f"after drop_table: rebuild_fallbacks={stats.rebuild_fallbacks} "
          f"({dict(stats.fallback_reasons)}), builds={stats.builds}")


if __name__ == "__main__":
    main()
