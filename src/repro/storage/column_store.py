"""The storage contract: typed NumPy arrays per column.

:class:`ColumnStore` owns the physical representation of every table.
The logical layer (:class:`repro.dataset.table.Table`) validates and
coerces cells, then hands fully prepared tuples to the store; everything
below the tuple API is the store's concern.  Tables are identified by
name and columns by 0-based position in the table's declared column
order.  Each table is stored as one array per column instead of a list
of row tuples:

* **text columns are dictionary-encoded** — an ``int64`` code array plus
  the per-column dictionary of distinct strings (NULL is code ``-1``), so
  repeated strings cost one int and per-distinct-value work (normalizing,
  tokenizing, constraint tests) runs once per dictionary entry, fanned
  out over the rows through the codes;
* **int/decimal/boolean columns** are ``int64``/``float64``/``bool``
  arrays with a separate NULL bitmask array (the cell slot of a NULL row
  holds a placeholder and is never read); numeric constraint scans over
  them are single vectorized comparisons;
* **date/time columns** — and int columns that overflow ``int64`` — fall
  back to object arrays, which stay correct but scan at Python speed.

Arrays grow by amortized doubling, so ``append_row`` (and therefore
``apply_delta`` consumers: append = array write, incremental dictionary
extension) stays O(1) amortized.  Rows are append-only and never
reordered, so a row index handed out once stays valid for the lifetime
of the table and a sliced view of the first *n* rows stays valid
forever — the executor's array kernels (:mod:`repro.query.kernels`) lean
on that through the cached :class:`ColumnKernel` snapshots the store
exposes, and :meth:`ColumnStore.delta_since` describes every change
between two table states as an append delta.

Every value accessor returns pure Python values (``tolist()`` at the
boundary), so consumers above — the inverted index, the metadata catalog,
the Bayesian trainers, the delta machinery — never see NumPy scalars.
Scans are the exception: :meth:`ColumnStore.select_rows` answers with
one boolean NumPy mask per column
(:meth:`~repro.constraints.values.ValueConstraint.mask`), which the
executor carries into its semijoin sweep unchanged.
The tuple-oriented API (``rows()``/``row()``) is a compatibility layer:
tuples are materialized lazily and cached until the next write.  The
store pickles cleanly (arrays are trimmed to their logical length; locks
and derived caches are dropped), so process-sharded serving and artifact
disk persistence work unchanged.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence
from uuid import uuid4

import numpy as np
# np.unique calls np.ma.is_masked, which imports numpy.ma (7-18 ms) on
# first use.  Importing it here pays that once, before a service forks
# its process shards, instead of in every shard's first build or round.
import numpy.ma  # noqa: F401

from repro.dataset.types import DataType
from repro.errors import SchemaError
from repro.storage.delta import NO_DICTIONARY, ColumnDelta, TableDelta, TableMark

if TYPE_CHECKING:
    from repro.constraints.values import ValueConstraint

__all__ = ["CellReader", "ColumnStore", "ColumnKernel"]

CellReader = Callable[[int], Any]
"""Reads one cell of a fixed (table, column) by row index."""

_NULL_CODE = -1
_MIN_CAPACITY = 16

#: Physical array kind per declared column type.  DATE/TIME hold Python
#: objects (exact calendar semantics beat lossy ordinal encodings here).
_KIND_OF_TYPE = {
    DataType.TEXT: "text",
    DataType.INT: "int",
    DataType.DECIMAL: "float",
    DataType.BOOLEAN: "bool",
    DataType.DATE: "object",
    DataType.TIME: "object",
}

_DTYPE_OF_KIND = {
    "text": np.int64,
    "int": np.int64,
    "float": np.float64,
    "bool": np.bool_,
    "object": object,
}


class ColumnKernel:
    """An immutable array snapshot of one column for the executor kernels.

    ``keys`` is the comparable key array (dictionary codes for text,
    typed values otherwise) and ``valid`` the non-NULL mask, both sliced
    views of the store's live arrays.  Append-only storage never
    mutates published rows, so a kernel stays a consistent snapshot even
    while the table keeps growing; the store hands out a *new* kernel
    after every append, which is what lets consumers cache derived
    structures keyed by kernel identity.
    """

    __slots__ = ("kind", "keys", "valid", "dictionary", "code_of",
                 "_python_keys")

    def __init__(
        self,
        kind: str,
        keys: np.ndarray,
        valid: np.ndarray,
        dictionary: Optional[list[str]] = None,
        code_of: Optional[dict[str, int]] = None,
    ):
        self.kind = kind  # "text" | "array" | "object"
        self.keys = keys
        self.valid = valid
        self.dictionary = dictionary
        self.code_of = code_of
        self._python_keys: Optional[list[Any]] = None

    def python_keys(self) -> list[Any]:
        """Decoded per-row key values (``None`` where NULL), cached."""
        if self._python_keys is None:
            if self.kind == "text":
                dictionary = self.dictionary or []
                self._python_keys = [
                    None if code < 0 else dictionary[code]
                    for code in self.keys.tolist()
                ]
            else:
                self._python_keys = [
                    None if null else value
                    for value, null in zip(
                        self.keys.tolist(), (~self.valid).tolist()
                    )
                ]
        return self._python_keys


class _ColumnData:
    """Physical storage of one column: a typed array plus a NULL mask."""

    __slots__ = ("data_type", "kind", "size", "values", "codes",
                 "dictionary", "code_of", "nulls", "null_count")

    def __init__(self, data_type: DataType):
        self.data_type = data_type
        self.kind = _KIND_OF_TYPE[data_type]
        self.size = 0
        self.null_count = 0
        self.nulls = np.zeros(0, dtype=np.bool_)
        if self.kind == "text":
            self.values: Optional[np.ndarray] = None
            self.codes: Optional[np.ndarray] = np.zeros(0, dtype=np.int64)
            self.dictionary: list[str] = []
            self.code_of: dict[str, int] = {}
        else:
            self.values = np.zeros(0, dtype=_DTYPE_OF_KIND[self.kind])
            self.codes = None
            self.dictionary = []
            self.code_of = {}

    @property
    def is_text(self) -> bool:
        return self.kind == "text"

    # -- growth --------------------------------------------------------
    def _grow(self, array: np.ndarray) -> np.ndarray:
        capacity = max(_MIN_CAPACITY, len(array) * 2)
        grown = np.zeros(capacity, dtype=array.dtype)
        grown[: len(array)] = array
        return grown

    def _ensure_capacity(self) -> None:
        if self.size >= len(self.nulls):
            self.nulls = self._grow(self.nulls)
        if self.is_text:
            if self.size >= len(self.codes):
                self.codes = self._grow(self.codes)
        elif self.size >= len(self.values):
            self.values = self._grow(self.values)

    def _promote_to_object(self) -> None:
        """Rewiden an overflowing int column into an object array.

        Values beyond ``int64`` are legal Python ints; correctness wins
        over vectorization, so the whole column drops to object storage
        (already-stored cells are numerically unchanged).
        """
        promoted = np.empty(len(self.values), dtype=object)
        promoted[: self.size] = self.values[: self.size].tolist()
        self.values = promoted
        self.kind = "object"

    # -- writes --------------------------------------------------------
    def append(self, value: Any) -> None:
        self._ensure_capacity()
        is_null = value is None
        self.nulls[self.size] = is_null
        if is_null:
            self.null_count += 1
        if self.is_text:
            if is_null:
                self.codes[self.size] = _NULL_CODE
            else:
                code = self.code_of.get(value)
                if code is None:
                    code = len(self.dictionary)
                    self.code_of[value] = code
                    self.dictionary.append(value)
                self.codes[self.size] = code
        elif is_null:
            if self.kind == "object":
                self.values[self.size] = None
            # typed arrays keep the zero placeholder under the NULL mask
        else:
            if self.kind == "int":
                try:
                    self.values[self.size] = value
                except OverflowError:
                    self._promote_to_object()
                    self.values[self.size] = value
            else:
                self.values[self.size] = value
        self.size += 1

    # -- reads ---------------------------------------------------------
    def get(self, row_index: int) -> Any:
        if not -self.size <= row_index < self.size:
            raise IndexError(f"row index {row_index} out of range")
        if row_index < 0:
            row_index += self.size
        if self.is_text:
            code = int(self.codes[row_index])
            return None if code < 0 else self.dictionary[code]
        if self.nulls[row_index]:
            return None
        value = self.values[row_index]
        return value if self.kind == "object" else value.item()

    def decoded(self) -> list[Any]:
        """All values in row order, NULLs included, as Python scalars."""
        if self.is_text:
            dictionary = self.dictionary
            return [
                None if code < 0 else dictionary[code]
                for code in self.codes[: self.size].tolist()
            ]
        raw = self.values[: self.size].tolist()
        if not self.null_count:
            return raw
        return [
            None if null else value
            for value, null in zip(raw, self.nulls[: self.size].tolist())
        ]

    def kernel(self) -> ColumnKernel:
        size = self.size
        if self.is_text:
            codes = self.codes[:size]
            return ColumnKernel(
                "text", codes, codes >= 0, self.dictionary, self.code_of
            )
        valid = ~self.nulls[:size]
        kind = "object" if self.kind == "object" else "array"
        return ColumnKernel(kind, self.values[:size], valid)


class _TableStore:
    """All columns of one table plus its derived caches.

    Derived caches (row tuples, column kernels, decoded columns) are published copy-on-write under ``_lock`` so concurrent
    readers either see a complete, immutable cache object or build their
    own: a reader holding a pre-write reference keeps a consistent (if
    stale) snapshot, never a half-built one.  Writes also run under the
    lock so the version token can never lag behind the data it stamps.
    """

    __slots__ = ("name", "columns", "num_rows", "version", "store_token",
                 "_rows_cache", "_kernels", "_decoded", "_lock")

    def __init__(self, name: str, columns: Sequence[Any]):
        self.name = name
        self.columns = [_ColumnData(column.data_type) for column in columns]
        self.num_rows = 0
        self.version = 0
        # Unique physical identity: a recreated table under the same name
        # gets a new token, so marks taken from the old store can never be
        # mistaken for an append history of the new one (version and row
        # count both restart at 0, so the counters alone cannot tell).
        self.store_token = uuid4().hex
        self._rows_cache: Optional[list[tuple[Any, ...]]] = None
        self._kernels: dict[int, ColumnKernel] = {}
        self._decoded: dict[int, list[Any]] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Trim arrays to their logical length so pickles carry no slack
        # capacity; locks and derived caches rebuild lazily on load.
        columns = []
        for column in self.columns:
            size = column.size
            state = {
                "data_type": column.data_type,
                "kind": column.kind,
                "size": size,
                "nulls": column.nulls[:size].copy(),
                "null_count": column.null_count,
            }
            if column.is_text:
                state["codes"] = column.codes[:size].copy()
                state["dictionary"] = list(column.dictionary)
            else:
                state["values"] = column.values[:size].copy()
            columns.append(state)
        return {
            "name": self.name,
            "columns": columns,
            "num_rows": self.num_rows,
            "version": self.version,
            "store_token": self.store_token,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.num_rows = state["num_rows"]
        self.version = state["version"]
        self.store_token = state["store_token"]
        self.columns = []
        for column_state in state["columns"]:
            column = _ColumnData.__new__(_ColumnData)
            column.data_type = column_state["data_type"]
            column.kind = column_state["kind"]
            column.size = column_state["size"]
            column.nulls = column_state["nulls"]
            column.null_count = column_state["null_count"]
            if column.kind == "text":
                column.values = None
                column.codes = column_state["codes"]
                column.dictionary = column_state["dictionary"]
                column.code_of = {
                    entry: code
                    for code, entry in enumerate(column.dictionary)
                }
            else:
                column.values = column_state["values"]
                column.codes = None
                column.dictionary = []
                column.code_of = {}
            self.columns.append(column)
        self._rows_cache = None
        self._kernels = {}
        self._decoded = {}
        self._lock = threading.Lock()

    # -- writes --------------------------------------------------------
    def append(self, prepared: Sequence[Any]) -> None:
        with self._lock:
            for column, value in zip(self.columns, prepared):
                column.append(value)
            self.num_rows += 1
            self.version += 1
            # Replace (never mutate) published caches.
            self._rows_cache = None
            self._kernels = {}
            self._decoded = {}

    # -- row-oriented reads --------------------------------------------
    def row(self, index: int) -> tuple[Any, ...]:
        cache = self._rows_cache
        if cache is not None:
            return cache[index]
        if index < 0:
            index += self.num_rows
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row index {index} out of range")
        return tuple(column.get(index) for column in self.columns)

    def rows(self) -> list[tuple[Any, ...]]:
        cache = self._rows_cache
        if cache is None:
            with self._lock:
                cache = self._rows_cache
                if cache is None:
                    cache = list(
                        zip(*(column.decoded() for column in self.columns))
                    )
                    self._rows_cache = cache
        return cache

    # -- decoded-column cache ------------------------------------------
    def decoded_column(self, position: int) -> list[Any]:
        """One column fully decoded to Python scalars, cached per column.

        Cell readers (the executor's projections of result rows above
        all) would otherwise pay a numpy scalar extraction per cell;
        decoding once per column amortizes that to list indexing.
        """
        decoded = self._decoded.get(position)
        if decoded is None:
            with self._lock:
                decoded = self._decoded.get(position)
                if decoded is None:
                    decoded = self.columns[position].decoded()
                    published = dict(self._decoded)
                    published[position] = decoded
                    self._decoded = published
        return decoded

    # -- kernels -------------------------------------------------------
    def kernel(self, position: int) -> ColumnKernel:
        kernel = self._kernels.get(position)
        if kernel is None:
            with self._lock:
                kernel = self._kernels.get(position)
                if kernel is None:
                    kernel = self.columns[position].kernel()
                    published = dict(self._kernels)
                    published[position] = kernel
                    self._kernels = published
        return kernel

    # -- marks and deltas ----------------------------------------------
    def mark(self) -> TableMark:
        with self._lock:
            return self._mark_locked()

    def _mark_locked(self) -> TableMark:
        return TableMark(
            table=self.name,
            version=self.version,
            num_rows=self.num_rows,
            column_count=len(self.columns),
            text_dict_lens=tuple(
                len(column.dictionary) if column.is_text else NO_DICTIONARY
                for column in self.columns
            ),
            store_token=self.store_token,
        )

    def delta_since(self, mark: TableMark) -> Optional[TableDelta]:
        with self._lock:
            if mark.table != self.name:
                return None
            if mark.store_token != self.store_token:
                return None
            if mark.column_count != len(self.columns):
                return None
            if self.version < mark.version or self.num_rows < mark.num_rows:
                return None
            if self.version - mark.version != self.num_rows - mark.num_rows:
                return None
            start, end = mark.num_rows, self.num_rows
            column_deltas = []
            for position, (column, marked_len) in enumerate(
                zip(self.columns, mark.text_dict_lens)
            ):
                if column.is_text:
                    if marked_len == NO_DICTIONARY:
                        return None
                    dict_len = len(column.dictionary)
                    if dict_len < marked_len:
                        return None
                    codes = tuple(column.codes[start:end].tolist())
                    dictionary = column.dictionary
                    column_deltas.append(ColumnDelta(
                        position=position,
                        is_text=True,
                        values=tuple(
                            None if code < 0 else dictionary[code]
                            for code in codes
                        ),
                        codes=codes,
                        dictionary=dictionary,
                        dict_len=dict_len,
                        new_dictionary_entries=tuple(
                            dictionary[marked_len:dict_len]
                        ),
                    ))
                else:
                    if marked_len != NO_DICTIONARY:
                        return None
                    raw = column.values[start:end].tolist()
                    if column.null_count:
                        nulls = column.nulls[start:end].tolist()
                        values = tuple(
                            None if null else value
                            for value, null in zip(raw, nulls)
                        )
                    else:
                        values = tuple(raw)
                    column_deltas.append(ColumnDelta(
                        position=position,
                        is_text=False,
                        values=values,
                    ))
            return TableDelta(
                table=self.name,
                start_row=start,
                end_row=end,
                columns=tuple(column_deltas),
                new_mark=self._mark_locked(),
            )


class ColumnStore:
    """In-memory columnar storage for registered tables.

    Reads are safe under concurrent readers: derived caches are published
    copy-on-write inside each table store (see :class:`_TableStore`).
    Table registration/removal is guarded by a store-level lock;
    concurrent writers to the *same* table serialize on that table's
    lock.  Besides tuple and column accessors, the store hands out
    :meth:`column_kernel` snapshots that the executor's array kernels
    scan without materializing Python objects, and append-delta marks
    (:meth:`table_mark`, :meth:`delta_since`) for incremental artifact
    maintenance.
    """

    def __init__(self) -> None:
        self._tables: dict[str, _TableStore] = {}
        self._registry_lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"_tables": self._tables}

    def __setstate__(self, state: dict) -> None:
        self._tables = state["_tables"]
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------
    def register_table(self, name: str, columns: Sequence[Any]) -> None:
        """Register an empty table with its :class:`Column` definitions."""
        with self._registry_lock:
            if name in self._tables:
                raise SchemaError(
                    f"table {name!r} is already registered with this store"
                )
            self._tables[name] = _TableStore(name, columns)

    def detach_table(self, name: str) -> "ColumnStore":
        """Remove a table but keep its data, returning a private store.

        Frees the name on this store while leaving any live
        :class:`~repro.dataset.table.Table` handle functional on the
        returned single-table store — used when a database drops a
        table from its shared store.
        """
        detached = ColumnStore()
        with self._registry_lock:
            store = self._tables.pop(name, None)
        if store is not None:
            detached._tables[name] = store
        return detached

    def _store(self, name: str) -> _TableStore:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise SchemaError(
                f"table {name!r} is not registered with this store"
            ) from exc

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append_row(self, table: str, prepared: Sequence[Any]) -> None:
        """Append one prepared (validated, coerced) row."""
        self._store(table).append(prepared)

    # ------------------------------------------------------------------
    # Row-oriented reads
    # ------------------------------------------------------------------
    def num_rows(self, table: str) -> int:
        return self._store(table).num_rows

    def row(self, table: str, index: int) -> tuple[Any, ...]:
        return self._store(table).row(index)

    def rows(self, table: str) -> list[tuple[Any, ...]]:
        """All rows as tuples (cached until the next write; read-only)."""
        return self._store(table).rows()

    def cell(self, table: str, row_index: int, position: int) -> Any:
        return self._store(table).columns[position].get(row_index)

    def cell_reader(self, table: str, position: int) -> CellReader:
        # Serve cells from the decoded-column cache: list indexing beats
        # per-cell numpy scalar extraction on row-at-a-time hot paths.
        return self._store(table).decoded_column(position).__getitem__

    # ------------------------------------------------------------------
    # Column-oriented reads
    # ------------------------------------------------------------------
    def column_values(self, table: str, position: int) -> list[Any]:
        # Fresh list (callers may mutate), but copied from the cached
        # decode instead of re-decoding the arrays.
        return list(self._store(table).decoded_column(position))

    def null_count(self, table: str, position: int) -> int:
        return self._store(table).columns[position].null_count

    def distinct_values(self, table: str, position: int) -> set[Any]:
        column = self._store(table).columns[position]
        if column.is_text:
            return set(column.dictionary)
        if column.kind == "object":
            return {
                value for value in column.values[: column.size].tolist()
                if value is not None
            }
        valid = ~column.nulls[: column.size]
        return set(np.unique(column.values[: column.size][valid]).tolist())

    def distinct_count(self, table: str, position: int) -> int:
        column = self._store(table).columns[position]
        if column.is_text:
            return len(column.dictionary)
        return len(self.distinct_values(table, position))

    def value_counts(self, table: str, position: int) -> dict[Any, int]:
        column = self._store(table).columns[position]
        size = column.size
        if column.is_text:
            counts = np.bincount(
                column.codes[:size][column.codes[:size] >= 0],
                minlength=len(column.dictionary),
            )
            return {
                value: int(count)
                for value, count in zip(column.dictionary, counts.tolist())
                if count
            }
        if column.kind == "object":
            result: dict[Any, int] = {}
            for value in column.values[:size].tolist():
                if value is None:
                    continue
                result[value] = result.get(value, 0) + 1
            return result
        valid = ~column.nulls[:size]
        unique, counts = np.unique(
            column.values[:size][valid], return_counts=True
        )
        return dict(zip(unique.tolist(), counts.tolist()))

    def text_dictionary(self, table: str, position: int) -> Optional[list[str]]:
        """The dictionary of a text column (``None`` for other columns).

        This is the store's live list — treat it as read-only; mutating
        it corrupts the encoding for every row.
        """
        column = self._store(table).columns[position]
        return column.dictionary if column.is_text else None

    def text_column_codes(
        self, table: str, position: int
    ) -> Optional[tuple[list[int], list[str]]]:
        """(codes, dictionary) of a text column (``None`` for others).

        Codes are per-row dictionary offsets; NULL cells carry a negative
        code.  The dictionary is the store's live list — read-only.
        """
        column = self._store(table).columns[position]
        if not column.is_text:
            return None
        return column.codes[: column.size].tolist(), column.dictionary

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def select_rows(
        self, table: str, position: int, constraint: "ValueConstraint"
    ) -> np.ndarray:
        """One bool per row: whether the cell is non-NULL and satisfies
        ``constraint`` (its :meth:`~repro.constraints.values.ValueConstraint.mask`
        over the column's kernel)."""
        return constraint.mask(self.column_kernel(table, position))

    # ------------------------------------------------------------------
    # Array kernels
    # ------------------------------------------------------------------
    def column_kernel(self, table: str, position: int) -> ColumnKernel:
        """A cached :class:`ColumnKernel` snapshot of one column.

        The snapshot is rebuilt (as a new object) after every append, so
        callers may key derived caches on kernel identity.
        """
        return self._store(table).kernel(position)

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    def version(self, table: str) -> int:
        """Monotonic per-table data version (bumped on every append)."""
        return self._store(table).version

    # ------------------------------------------------------------------
    # Append deltas
    # ------------------------------------------------------------------
    def table_mark(self, table: str) -> TableMark:
        """A :class:`TableMark` fingerprint of the table's current state,
        captured atomically with respect to writes."""
        return self._store(table).mark()

    def delta_since(self, table: str, mark: TableMark) -> Optional[TableDelta]:
        """The append delta between ``mark`` and the table's current state.

        Returns ``None`` whenever the difference cannot be proven to be
        pure appends: the mark belongs to a different physical store or
        layout, or the version counter does not match the row-count
        growth.  The returned delta snapshots its cell values, so it
        stays valid under further concurrent appends.
        """
        return self._store(table).delta_since(mark)
