"""Columnar storage for the engine's relations.

The engine's relations live behind a :class:`StorageBackend`: tables are
registered with their schema, rows are appended as prepared (validated,
coerced) tuples, and every consumer above — the inverted index, the
metadata catalog, the Bayesian trainers and the query executor — reads
either whole columns or individual cells through the backend interface.

The backend is :class:`ColumnStore`, which keeps each table as typed
NumPy column arrays with dictionary encoding for text columns and
per-column NULL masks.  It hands out column array snapshots that the
executor joins with vectorized kernels, for existence probes and row
enumeration alike.

Because storage is append-only, the backend can additionally describe the
difference between two table states as an append delta
(:class:`TableMark` / :class:`TableDelta`); the service layer's
incremental artifact refresh is built on that capability.
"""

from repro.errors import SchemaError
from repro.storage.backend import StorageBackend
from repro.storage.column_store import ColumnStore
from repro.storage.delta import ColumnDelta, TableDelta, TableMark

__all__ = [
    "ColumnDelta",
    "ColumnStore",
    "StorageBackend",
    "TableDelta",
    "TableMark",
    "make_backend",
]


def make_backend(kind: str) -> StorageBackend:
    """Build a fresh storage backend by name.

    ``"numpy"`` is the only name and builds a :class:`ColumnStore`.
    Anything else raises :class:`~repro.errors.SchemaError` — a misspelled
    backend name must not quietly fall back to a default.
    """
    if kind == "numpy":
        return ColumnStore()
    raise SchemaError(
        f"unknown storage backend {kind!r}; the only backend is 'numpy'"
    )
