"""The :class:`Database` container: tables plus foreign-key edges.

A database is the unit the rest of the library operates on: the inverted
index, metadata catalog, schema graph, Bayesian models and the discovery
engine are all built from a :class:`Database` instance.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.dataset.schema import Column, ColumnRef, ForeignKey
from repro.dataset.table import Table
from repro.errors import SchemaError
from repro.storage import ColumnStore, StorageBackend

__all__ = ["Database"]


class Database:
    """A named collection of tables connected by foreign keys.

    All tables created through :meth:`create_table` share one storage
    backend (a fresh :class:`~repro.storage.ColumnStore` unless a backend
    is injected), so database-wide consumers — the executor's column
    kernels in particular — operate against a single physical store.
    Tables adopted via :meth:`add_table` keep whatever backend they were
    built on.
    """

    def __init__(self, name: str, backend: Optional[StorageBackend] = None):
        if not name or not name.strip():
            raise SchemaError("database name must be a non-empty string")
        self.name = name
        self._backend: StorageBackend = (
            backend if backend is not None else ColumnStore()
        )
        self._tables: dict[str, Table] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._schema_version = 0

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    @property
    def backend(self) -> StorageBackend:
        """The storage backend shared by tables created on this database."""
        return self._backend

    def create_table(self, name: str, columns: Sequence[Column]) -> Table:
        """Create, register and return a new empty table."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, columns, backend=self._backend)
        self.add_table(table)
        return table

    def add_table(self, table: Table) -> None:
        """Register an existing :class:`Table` instance."""
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._schema_version += 1

    def drop_table(self, name: str) -> None:
        """Remove a table and any foreign keys touching it."""
        if name not in self._tables:
            raise SchemaError(f"no such table: {name!r}")
        table = self._tables.pop(name)
        if table.backend is self._backend:
            # Free the name on the shared backend for reuse, but keep the
            # dropped Table handle functional and isolated on a private
            # backend — a stale reference must never alias a successor
            # table's storage.
            table.detach_storage()
        self._foreign_keys = [
            fk for fk in self._foreign_keys if name not in fk.tables()
        ]
        self._schema_version += 1

    def has_table(self, name: str) -> bool:
        """Whether a table named ``name`` exists."""
        return name in self._tables

    def table(self, name: str) -> Table:
        """Return the table named ``name``."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise SchemaError(f"no such table: {name!r}") from exc

    @property
    def tables(self) -> dict[str, Table]:
        """Mapping of table name to :class:`Table` (treat as read-only)."""
        return self._tables

    @property
    def table_names(self) -> list[str]:
        """All table names in registration order."""
        return list(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # ------------------------------------------------------------------
    # Foreign keys
    # ------------------------------------------------------------------
    def add_foreign_key(self, foreign_key: ForeignKey) -> None:
        """Register a foreign-key edge, validating both endpoints exist."""
        for table_name, column_name in (
            (foreign_key.child_table, foreign_key.child_column),
            (foreign_key.parent_table, foreign_key.parent_column),
        ):
            table = self.table(table_name)
            if not table.has_column(column_name):
                raise SchemaError(
                    f"foreign key references unknown column "
                    f"{table_name}.{column_name}"
                )
        if foreign_key in self._foreign_keys:
            return
        self._foreign_keys.append(foreign_key)

    def link(
        self,
        child: str,
        parent: str,
        name: Optional[str] = None,
    ) -> ForeignKey:
        """Convenience: add a foreign key from ``"Table.column"`` strings."""
        child_table, _, child_column = child.partition(".")
        parent_table, _, parent_column = parent.partition(".")
        if not child_column or not parent_column:
            raise SchemaError(
                "link() expects 'Table.column' strings, got "
                f"{child!r} and {parent!r}"
            )
        foreign_key = ForeignKey(
            child_table, child_column, parent_table, parent_column, name=name
        )
        self.add_foreign_key(foreign_key)
        return foreign_key

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        """All registered foreign keys (treat as read-only)."""
        return self._foreign_keys

    def foreign_keys_between(self, left: str, right: str) -> list[ForeignKey]:
        """Foreign keys connecting two tables (in either direction)."""
        result = []
        for fk in self._foreign_keys:
            if {left, right} == set(fk.tables()):
                result.append(fk)
        return result

    # ------------------------------------------------------------------
    # Column helpers
    # ------------------------------------------------------------------
    def all_column_refs(self) -> list[ColumnRef]:
        """Every column in the database as a :class:`ColumnRef`."""
        refs = []
        for table in self._tables.values():
            for column in table.columns:
                refs.append(ColumnRef(table.name, column.name))
        return refs

    def column(self, ref: ColumnRef) -> Column:
        """Resolve a :class:`ColumnRef` to its :class:`Column` definition."""
        return self.table(ref.table).column(ref.column)

    def column_values(self, ref: ColumnRef) -> list:
        """All values of the referenced column."""
        return self.table(ref.table).column_values(ref.column)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def schema_version(self) -> int:
        """Monotonic counter bumped on every table addition or removal.

        Caches derived from schema structure (e.g. the executor's join
        plans, which bake in column positions) must be discarded when this
        changes — a dropped-and-recreated table may have a different
        layout under the same name.
        """
        return self._schema_version

    @property
    def data_version(self) -> tuple[int, int, int]:
        """A cheap change token: (schema version, table count, summed
        storage versions).

        Any insert or table addition/removal yields a different token, so
        callers (e.g. the executor's existence-memo cache) can detect
        staleness without hashing contents.  The schema version guards the
        drop-and-recreate case, where count and summed versions alone
        could coincide.
        """
        return (
            self._schema_version,
            len(self._tables),
            sum(table.storage_version for table in self._tables.values()),
        )

    def artifact_key(self) -> tuple:
        """Identity token for preprocessing artifacts built from this state.

        ``(name, schema_version, data_version)`` — the key under which the
        service layer's :class:`~repro.api.ArtifactStore` caches and
        persists preprocessing bundles.  Two databases with equal keys are
        treated as interchangeable sources for cached artifacts.
        """
        return (self.name, self._schema_version, self.data_version)

    # ------------------------------------------------------------------
    # Append deltas
    # ------------------------------------------------------------------
    def storage_marks(self) -> Optional[dict]:
        """Per-table :class:`~repro.storage.TableMark` fingerprints.

        Captured when preprocessing artifacts are published, so a later
        :meth:`storage_deltas_since` can derive exactly which rows were
        appended in between.  Returns ``None`` when any table's backend
        does not support delta tracking.
        """
        marks = {}
        for table in self._tables.values():
            mark = table.backend.table_mark(table.name)
            if mark is None:
                return None
            marks[table.name] = mark
        return marks

    def storage_deltas_since(self, marks: dict) -> Optional[dict]:
        """Append deltas for every table that changed since ``marks``.

        Returns a mapping of table name →
        :class:`~repro.storage.TableDelta` covering only the tables with
        appended rows (unchanged tables are omitted), or ``None`` when
        the difference cannot be expressed as pure appends: the table set
        changed, a backend does not track deltas, or a table saw a
        non-append write.  Callers fall back to full rebuilds on ``None``.
        """
        if set(marks) != set(self._tables):
            return None
        deltas = {}
        for table in self._tables.values():
            mark = marks[table.name]
            delta = table.backend.delta_since(table.name, mark)
            if delta is None:
                return None
            if delta.num_rows:
                deltas[table.name] = delta
        return deltas

    @property
    def total_rows(self) -> int:
        """Total number of rows across every table."""
        return sum(table.num_rows for table in self._tables.values())

    def summary(self) -> dict[str, dict[str, int]]:
        """Small structural summary used by the CLI and examples."""
        return {
            table.name: {
                "columns": len(table.columns),
                "rows": table.num_rows,
            }
            for table in self._tables.values()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Database(name={self.name!r}, tables={len(self._tables)}, "
            f"foreign_keys={len(self._foreign_keys)})"
        )
