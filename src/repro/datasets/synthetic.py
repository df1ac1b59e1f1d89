"""Generic synthetic database generator.

Used by property-based tests and the scalability benchmark: generates a
database with a configurable number of tables arranged in a chain, star or
random-tree schema, with controllable row counts and value vocabularies.
The generator is deterministic given its seed.
"""

from __future__ import annotations

import bisect
import random
from typing import Literal, Optional

from repro.dataset.database import Database
from repro.dataset.schema import Column
from repro.dataset.types import DataType
from repro.errors import WorkloadError
from repro.storage import ColumnStore

__all__ = ["generate_synthetic_database"]

_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu",
]

Topology = Literal["chain", "star", "random"]


def generate_synthetic_database(
    num_tables: int = 4,
    rows_per_table: int = 200,
    extra_columns: int = 2,
    topology: Topology = "chain",
    seed: int = 0,
    name: str = "synthetic",
    backend: Optional[ColumnStore] = None,
    skew: float = 0.0,
    dangling_fk_fraction: float = 0.0,
) -> Database:
    """Generate a synthetic relational database.

    Every table ``T{i}`` has an integer key ``id``, a text ``label``, a
    numeric ``measure`` plus ``extra_columns`` additional attributes.
    Non-root tables carry a foreign key ``parent_id`` to their parent table
    according to the chosen topology.

    Args:
        num_tables: number of tables (>= 1).
        rows_per_table: rows inserted into each table.
        extra_columns: additional attribute columns per table.
        topology: ``chain`` (T1-T2-T3-...), ``star`` (all link to T1) or
            ``random`` (each table links to a random earlier table).
        seed: RNG seed controlling both structure and content.
        name: database name.
        backend: the :class:`~repro.storage.ColumnStore` holding the
            generated tables (a fresh one when omitted).
        skew: Zipf exponent for foreign-key values.  ``0.0`` (the
            default) keeps the historical uniform draw; larger values
            concentrate references on low parent ids (``s≈1`` is classic
            Zipf), giving joins the hot-key/long-tail shape real data
            has and making sketch-based cardinality estimates diverge
            from uniform-containment ones.
        dangling_fk_fraction: fraction of foreign-key values (in
            ``[0, 1]``) pointing *past* the parent table's id range —
            dangling references that can never join.  Bloom filters on
            the parent key detect these without probing.
    """
    if num_tables < 1:
        raise WorkloadError("num_tables must be at least 1")
    if rows_per_table < 1:
        raise WorkloadError("rows_per_table must be at least 1")
    if skew < 0:
        raise WorkloadError("skew must be non-negative")
    if not 0.0 <= dangling_fk_fraction <= 1.0:
        raise WorkloadError("dangling_fk_fraction must be in [0, 1]")
    rng = random.Random(seed)
    database = Database(name, backend=backend)

    parents: dict[int, int] = {}
    for index in range(1, num_tables):
        if topology == "chain":
            parents[index] = index - 1
        elif topology == "star":
            parents[index] = 0
        elif topology == "random":
            parents[index] = rng.randint(0, index - 1)
        else:
            raise WorkloadError(f"unknown topology: {topology!r}")

    # Inverse-CDF table for the Zipf draw over parent ids, built lazily
    # (every non-root table shares the same parent-id range).  Kept off
    # the rng stream entirely when skew is 0 so the default databases are
    # byte-identical to the generator's historical output.
    zipf_cdf: list[float] = []
    if skew > 0:
        total = 0.0
        for rank in range(rows_per_table):
            total += (rank + 1.0) ** -skew
            zipf_cdf.append(total)
        zipf_cdf = [weight / total for weight in zipf_cdf]

    def draw_parent_id(parent_rows: int) -> int:
        if dangling_fk_fraction > 0 and rng.random() < dangling_fk_fraction:
            # Past the end of the parent's id range: never joins.
            return rng.randint(parent_rows, 2 * parent_rows - 1)
        if skew > 0:
            return bisect.bisect_left(zipf_cdf, rng.random())
        return rng.randint(0, parent_rows - 1)

    for index in range(num_tables):
        columns = [
            Column("id", DataType.INT, primary_key=True),
            Column("label", DataType.TEXT),
            Column("measure", DataType.DECIMAL),
        ]
        if index in parents:
            columns.append(Column("parent_id", DataType.INT))
        for extra in range(extra_columns):
            columns.append(Column(f"attr{extra}", DataType.TEXT))
        table = database.create_table(f"T{index}", columns)

        parent_rows = rows_per_table if index in parents else None
        for row_id in range(rows_per_table):
            row: list = [
                row_id,
                f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}-{index}",
                round(rng.uniform(0.0, 1_000.0), 2),
            ]
            if index in parents:
                row.append(draw_parent_id(parent_rows))
            for __ in range(extra_columns):
                row.append(rng.choice(_WORDS))
            table.insert(row)

    for index, parent_index in parents.items():
        database.link(f"T{index}.parent_id", f"T{parent_index}.id")
    return database
