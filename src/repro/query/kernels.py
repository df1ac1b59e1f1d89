"""Array kernels: the executor's only join mechanism.

Streaming per-row join assignments through Python frames would, on a
*false* probe, enumerate a join product just to prove nothing is there.
Over the storage's column array snapshots
(:meth:`~repro.storage.ColumnStore.column_kernel`), this module runs
Yannakakis' upward semijoin pass instead; it decides every
:meth:`~repro.query.executor.Executor.exists` and
:meth:`~repro.query.executor.Executor.exists_batch` probe, and it
reduces the tables before :meth:`~repro.query.executor.Executor.execute`
enumerates rows, whatever the table sizes or key types:

every physical plan is a tree of probe steps (each step attaches one new
table), so processing the steps in *reverse* order visits every subtree
before its root.  The sweep starts from the pushdown's boolean row masks
(:meth:`~repro.constraints.values.ValueConstraint.mask` over the same
column snapshots) and never writes to them, so one mask may serve many
probes.  One step folds the new table's surviving-row mask into
the existing side — ``mask[existing] &= existing key ∈ keys(new rows
still alive)`` — as one vectorized membership test, and after the sweep
the start table's mask is non-empty iff the join has at least one result
row.  A probe over k tables of n rows costs O(k·n log n) in C instead of
a Python-frame walk of the join.

After the sweep every surviving row extends to a result row, so
:func:`join_rows` enumerates the join with one array join per step
(:meth:`EdgeKernel.matches`) and never builds a partial row that leads
nowhere.

Key comparisons follow the reference evaluator
(:mod:`repro.query.reference`) exactly:

* **text ⋈ text** compares dictionary codes after translating one
  column's code space into the other's (a small translate array built
  once per edge and cached);
* **same-dtype arrays** (int ⋈ int, float ⋈ float, bool ⋈ bool) compare
  raw values with ``np.isin`` (sweep) and ``np.searchsorted`` (matching)
  masked by the NULL bitmasks;
* **everything else** — mixed dtypes (int ⋈ float, bool ⋈ int, text ⋈
  non-text) and object columns (dates, overflowed ints) — drops to
  Python ``set`` and ``dict`` lookups of the keys, preserving Python's
  cross-type equality (``True == 1 == 1.0``) bit for bit.

NULL keys never match (SQL semantics): the text kernel's NULL code
``-1`` can never appear in a translated allowed set, and the array/set
kernels intersect with the NULL masks explicitly.  NaN keys never match
either, because NaN never equals itself: ``np.isin`` finds no NaN on a
float ⋈ float edge, and on a set-kernel edge a float NaN only ever meets
keys of another type.  ``tests/integration/test_kernel_differential.py``
checks the sweep and the enumeration against the reference on seeded
random databases.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.dataset.sketches import hash_value, hash_values

__all__ = ["BloomMask", "EdgeKernel", "join_rows", "semijoin_exists"]

# Row masks are ``np.ndarray`` (bool) or ``None`` meaning "every row".
_Mask = Optional[np.ndarray]


class BloomMask:
    """Which rows of one column have a key that may be in a Bloom filter.

    The executor's Bloom pre-filter asks this of the same column and
    filter over and over, so membership is decided once per key, not
    once per call: for array and object kernels one hash per valid row
    when the mask is built, for text kernels one hash per dictionary
    entry, filled lazily for the codes the calls meet.  NULL keys are
    never kept (they can never join).  The hashes are the sketch layer's
    canonical value hashes, so the kept rows equal those of a per-row
    ``bloom.might_contain`` loop.  Bound to one kernel snapshot
    (``kernel``) and one filter state, so it lives in the executor
    cache of one artifact key, which executors on several threads may
    share: a text mask's entry is only ever written with its one correct
    value, so calls filling it at once need no lock.
    """

    __slots__ = ("kernel", "_bloom", "_rows", "_entries")

    def __init__(self, kernel, bloom):
        self.kernel = kernel
        self._bloom = bloom
        self._rows: Optional[np.ndarray] = None
        self._entries: Optional[np.ndarray] = None
        if kernel.kind == "text":
            # Per dictionary entry: -1 undecided, 0 absent, 1 may be present.
            self._entries = np.full(len(kernel.dictionary), -1, dtype=np.int8)
            return
        rows = kernel.valid.copy()
        hashes = hash_values(kernel.keys[rows])  # a list for object keys
        rows[rows] = bloom.contains_hashes(np.asarray(hashes, dtype=np.uint64))
        self._rows = rows

    def keep(self, selection: np.ndarray) -> np.ndarray:
        """The rows of the boolean row mask ``selection`` whose key may be
        in the filter, as a new mask."""
        if self._rows is not None:
            return selection & self._rows
        rows = np.flatnonzero(selection)
        codes = self.kernel.keys[rows]
        valid = codes >= 0
        rows, codes = rows[valid], codes[valid]
        entries = self._entries
        state = entries[codes]
        undecided = state < 0
        if undecided.any():
            new = np.unique(codes[undecided])
            dictionary = self.kernel.dictionary
            hashes = np.fromiter(
                (hash_value(dictionary[code]) for code in new.tolist()),
                dtype=np.uint64,
                count=len(new),
            )
            entries[new] = self._bloom.contains_hashes(hashes)
            state = entries[codes]
        kept = np.zeros(len(selection), dtype=np.bool_)
        kept[rows[state == 1]] = True
        return kept


class EdgeKernel:
    """One join edge lowered onto two :class:`ColumnKernel` snapshots.

    Bound to specific kernel objects (``existing``/``new``): the store
    publishes a fresh kernel after every append, which also moves the
    database's artifact key, so an edge lives in the executor cache of
    one artifact key.  The fully-unconstrained fold (``new_mask is None`` — by far the common
    case for interior tables of a probe) is computed once and cached;
    callers racing to compute it store equal arrays.
    """

    __slots__ = ("existing", "new", "mode", "_translate", "_full_keep")

    def __init__(self, existing, new):
        self.existing = existing
        self.new = new
        self._full_keep: Optional[np.ndarray] = None
        if existing.kind == "text" and new.kind == "text":
            self.mode = "text"
            # new-side code → existing-side code (-1: absent from the
            # existing dictionary, matches nothing).
            self._translate = np.fromiter(
                (existing.code_of.get(entry, -1) for entry in new.dictionary),
                dtype=np.int64,
                count=len(new.dictionary),
            )
        elif (
            existing.kind == "array"
            and new.kind == "array"
            and existing.keys.dtype == new.keys.dtype
        ):
            self.mode = "array"
            self._translate = None
        else:
            self.mode = "set"
            self._translate = None

    def keep_existing(self, new_mask: _Mask) -> np.ndarray:
        """Existing-side rows whose key survives on the new side.

        Returns a fresh (or cached, never subsequently mutated) boolean
        array over the existing table's rows; NULL keys are always
        False.
        """
        if new_mask is None:
            keep = self._full_keep
            if keep is None:
                keep = self._keep(self._allowed(None))
                self._full_keep = keep
            return keep
        return self._keep(self._allowed(new_mask))

    def _allowed(self, new_mask: _Mask) -> Any:
        """The surviving new-side keys, in the existing side's key space."""
        new = self.new
        if self.mode == "text":
            codes = new.keys if new_mask is None else new.keys[new_mask]
            codes = codes[codes >= 0]
            mapped = self._translate[codes]
            return np.unique(mapped[mapped >= 0])
        if self.mode == "array":
            valid = new.valid if new_mask is None else new_mask & new.valid
            return np.unique(new.keys[valid])
        keys = new.python_keys()
        if new_mask is None:
            return {key for key in keys if key is not None}
        return {
            key
            for key, keep in zip(keys, new_mask.tolist())
            if keep and key is not None
        }

    def _keep(self, allowed: Any) -> np.ndarray:
        existing = self.existing
        if self.mode == "text":
            # NULL code -1 can never be in `allowed` (all entries >= 0);
            # codes are small bounded ints, so the table method applies.
            if len(allowed) == 1:
                return existing.keys == allowed[0]
            return np.isin(existing.keys, allowed, kind="table")
        if self.mode == "array":
            return np.isin(existing.keys, allowed) & existing.valid
        keys = existing.python_keys()
        # `allowed` holds no None, so NULL keys fall out naturally.
        return np.fromiter(
            (key in allowed for key in keys), dtype=np.bool_, count=len(keys)
        )

    def matches(
        self, existing_rows: np.ndarray, new_mask: _Mask, limit: Optional[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Join existing-side rows to the new side's surviving rows.

        Returns aligned ``(positions, new_rows)`` arrays: every pair of a
        position into ``existing_rows`` and a new-side row (within
        ``new_mask``) whose key equals that row's key, ordered by
        position and then by ascending new row.  With a ``limit`` only
        the first ``limit`` pairs are built.  ``existing_rows`` must be
        rows the upward pass kept, so none has a NULL or NaN key.
        """
        new = self.new
        rows = (
            np.arange(len(new.keys)) if new_mask is None
            else np.flatnonzero(new_mask)
        )
        # NULL keys never match.  Drop them before translating text
        # codes: the NULL code -1 would index the last translate entry.
        rows = rows[new.valid[rows]]
        if self.mode == "set":
            # Number the keys by Python equality (True == 1 == 1.0; NaN
            # never equals itself) and match the numbers.
            classes: dict[Any, int] = {}
            new_keys = new.python_keys()
            keys = np.array(
                [classes.setdefault(new_keys[row], len(classes))
                 for row in rows.tolist()],
                dtype=np.int64,
            )
            existing_keys = self.existing.python_keys()
            probe = np.array(
                [classes.get(existing_keys[row], -1)
                 for row in existing_rows.tolist()],
                dtype=np.int64,
            )
        else:
            keys = new.keys[rows]
            if self.mode == "text":
                keys = self._translate[keys]
            probe = self.existing.keys[existing_rows]
        # Stable, so rows stay ascending within each key.
        order = np.argsort(keys, kind="stable")
        keys, rows = keys[order], rows[order]
        low = np.searchsorted(keys, probe, "left")
        counts = np.searchsorted(keys, probe, "right") - low
        if limit is not None:
            ends = np.cumsum(counts)
            if ends.size and ends[-1] > limit:
                cut = int(np.searchsorted(ends, limit))
                counts = counts[: cut + 1]
                counts[cut] -= ends[cut] - limit
                low = low[: cut + 1]
        positions = np.repeat(np.arange(len(counts)), counts)
        # Pair k of position p reads sorted row low[p] + (k - first[p]).
        first = np.cumsum(counts) - counts
        offsets = np.arange(len(positions)) - np.repeat(first - low, counts)
        return positions, rows[offsets]


def semijoin_exists(start_table: str, steps, edges, masks: dict) -> bool:
    """Whether the join admits at least one fully-assigned result row.

    ``steps``/``edges`` are the plan's probe steps with their aligned
    :class:`EdgeKernel` per step; ``masks`` maps table name → pushed-down
    row mask (missing or ``None`` = every row).  Folds replace the
    dict's entries and never write to a mask.  Iterating the steps in
    reverse visits children before parents (a step's new table can only
    serve as the existing side of *later* steps), so each fold sees the
    new side's mask already narrowed by its whole subtree — the upward
    pass of Yannakakis' semijoin reduction, which is exact for the tree
    joins the planner emits.  Pushdown has already ruled out empty
    tables and empty selections, so an empty mask can only arise from a
    fold, and the final fold (into ``start_table``) is emptiness-checked
    like every other.
    """
    for step, edge in zip(reversed(steps), reversed(edges)):
        keep = edge.keep_existing(masks.get(step.new_table))
        current = masks.get(step.existing_table)
        combined = keep if current is None else current & keep
        if not combined.any():
            return False
        masks[step.existing_table] = combined
    return True


def join_rows(
    start_table: str, steps, edges, masks: dict, limit: Optional[int] = None
) -> dict[str, np.ndarray]:
    """The join's result rows as aligned row-index arrays, one per table.

    Runs after :func:`semijoin_exists` returned True on ``masks``, which
    must hold a mask for ``start_table``.  Starting from that table's
    surviving rows in ascending order, each step joins the rows built so
    far to the new table's surviving rows, so rows come out in
    nested-loop order.  Every surviving row extends to a result row, so
    cutting each step's output to ``limit`` rows keeps exactly the first
    ``limit`` result rows.
    """
    rows = {start_table: np.flatnonzero(masks[start_table])[:limit]}
    for step, edge in zip(steps, edges):
        positions, new_rows = edge.matches(
            rows[step.existing_table], masks.get(step.new_table), limit
        )
        rows = {table: column[positions] for table, column in rows.items()}
        rows[step.new_table] = new_rows
    return rows
