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
still alive)`` — as one scatter and one gather over the edge's key
codes, and after the sweep the start table's mask is non-empty iff the
join has at least one result row.  A probe over k tables of n rows costs
O(k·n) in C instead of a Python-frame walk of the join, once each edge
has coded its keys (at most one O(n log n) sort per edge).

After the sweep every surviving row extends to a result row, so
:func:`join_rows` enumerates the join with one array join per step
(:meth:`EdgeKernel.matches`) and never builds a partial row that leads
nowhere.

Key comparisons follow the reference evaluator
(:mod:`repro.query.reference`) exactly.  An :class:`EdgeKernel` numbers
both sides' keys once, when it is built, in one code space where equal
keys share a code:

* **text ⋈ text** translates the new column's dictionary codes into the
  existing column's (a small translate array);
* **same-dtype arrays** (int ⋈ int, float ⋈ float, bool ⋈ bool) code
  integer and boolean keys as offsets from their minimum while the
  values span at most a few times the two sides' rows, and all other
  keys by one sort (``np.unique`` with ``return_inverse``);
* **everything else** — mixed dtypes (int ⋈ float, bool ⋈ int, text ⋈
  non-text) and object columns (dates, overflowed ints) — numbers the
  keys through one Python ``dict``, preserving Python's cross-type
  equality (``True == 1 == 1.0``) bit for bit.

NULL keys never match (SQL semantics), and NaN keys never match either,
because NaN never equals itself: both get code ``-1``, as does an
existing key the new side lacks, and every fold clears the table slot
that ``-1`` reads.  ``tests/integration/test_kernel_differential.py``
checks the sweep and the enumeration against the reference on seeded
random databases, and ``tests/query/test_kernels_reference.py`` checks
the coded kernel against the one that collected keys on every fold.
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

    Both sides' keys are numbered once, when the edge is built, in one
    code space (:func:`_codes`): equal keys share a code, and ``-1``
    marks every key that can never match — NULL, NaN, and an existing
    key the new side lacks.  A fold is then one scatter of the surviving
    new-side codes into a boolean table over the codes and one gather of
    the existing side's codes from it; the table's last slot is the
    sentinel every ``-1`` lands on, cleared after the scatter.  ``mode``
    names how the keys were coded (``"text"``, ``"array"`` or
    ``"set"``).

    Built from two kernel snapshots (``existing``/``new``): the store
    publishes a fresh kernel after every append, which also moves the
    database's artifact key, so an edge lives in the executor cache of
    one artifact key.  Nothing changes after construction, so executors
    on several threads may share an edge without a lock.
    """

    __slots__ = ("mode", "existing_codes", "new_codes", "_size", "_full_keep")

    def __init__(self, existing, new):
        self.mode, existing_codes, self.new_codes = _codes(existing, new)
        # Sized from the codes: a text edge's translate may hold codes of
        # dictionary entries appended after the existing snapshot.
        self._size = 1 + int(max(
            existing_codes.max(initial=-1), self.new_codes.max(initial=-1)
        ))
        keep = _fold(existing_codes, self.new_codes, self._size)
        self.existing_codes = np.where(keep, existing_codes, -1)
        # The fully-unconstrained fold (by far the common case for
        # interior tables of a probe).
        self._full_keep = keep

    def keep_existing(self, new_mask: _Mask) -> np.ndarray:
        """Existing-side rows whose key survives on the new side.

        Returns a fresh (or cached, never subsequently mutated) boolean
        array over the existing table's rows; NULL keys are always
        False.
        """
        if new_mask is None:
            return self._full_keep
        return _fold(self.existing_codes, self.new_codes[new_mask], self._size)

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
        alive = self.new_codes >= 0
        if new_mask is not None:
            alive &= new_mask
        rows = np.flatnonzero(alive)
        keys = self.new_codes[rows]
        # Stable, so rows stay ascending within each key.
        order = np.argsort(keys, kind="stable")
        keys, rows = keys[order], rows[order]
        probe = self.existing_codes[existing_rows]
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


def _fold(existing_codes: np.ndarray, new_codes: np.ndarray, size: int):
    """Which existing codes occur among ``new_codes``: one scatter into a
    table over the ``size`` codes and one gather from it."""
    table = np.zeros(size + 1, dtype=np.bool_)
    table[new_codes] = True
    table[-1] = False  # the sentinel every -1 code lands on
    return table[existing_codes]


#: Integer keys whose values span at most this many times the two
#: sides' rows are coded as offsets from their minimum; wider spans sort.
_OFFSET_SPAN = 4


def _codes(existing, new) -> tuple[str, np.ndarray, np.ndarray]:
    """How an edge's keys were coded, and the codes of both sides.

    Keys that compare equal under the reference evaluator's ``==`` share
    a code; NULL and NaN keys get ``-1``.
    """
    if existing.kind == "text" and new.kind == "text":
        # new-side dictionary code → existing-side code (-1: absent from
        # the existing dictionary); NULL codes (-1) read the trailing -1.
        translate = np.array(
            [existing.code_of.get(entry, -1) for entry in new.dictionary]
            + [-1],
            dtype=np.int64,
        )
        return "text", existing.keys, translate[new.keys]
    if (
        existing.kind == "array"
        and new.kind == "array"
        and existing.keys.dtype == new.keys.dtype
    ):
        codes = _array_codes(
            np.concatenate((existing.keys, new.keys)),
            np.concatenate((existing.valid, new.valid)),
        )
        split = len(existing.keys)
        return "array", codes[:split], codes[split:]
    # Mixed types and object columns: Python equality (True == 1 == 1.0)
    # through one dict.  NaN never equals itself, so it gets no code.
    classes: dict[Any, int] = {}
    new_codes = [
        -1 if key is None or key != key
        else classes.setdefault(key, len(classes))
        for key in new.python_keys()
    ]
    existing_codes = [classes.get(key, -1) for key in existing.python_keys()]
    return (
        "set",
        np.array(existing_codes, dtype=np.int64),
        np.array(new_codes, dtype=np.int64),
    )


def _array_codes(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Codes of one typed key array: ``-1`` where NULL or NaN."""
    if keys.dtype.kind == "f":
        valid = valid & (keys == keys)
    elif keys.dtype == np.bool_:
        keys = keys.view(np.uint8)
    codes = np.full(len(keys), -1, dtype=np.int64)
    present = keys[valid]
    if not len(present):
        return codes
    if keys.dtype.kind in "iu":
        low = present.min()
        if int(present.max()) - int(low) <= _OFFSET_SPAN * len(keys):
            codes[valid] = present - low
            return codes
    # return_inverse keeps np.unique on its sort path (its hash path is
    # many times slower on int64 keys); -0.0 sorts equal to 0.0.
    codes[valid] = np.unique(present, return_inverse=True)[1]
    return codes


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
