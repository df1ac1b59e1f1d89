"""Array kernels for existence probes over the column store's arrays.

The executor's generic existence path streams per-row join assignments
through Python frames — perfect for early termination, but on a *false*
probe it enumerates a join product just to prove nothing is there.  Over
the storage's column array snapshots
(:meth:`~repro.storage.ColumnStore.column_kernel`), this module decides
the same probes with a bottom-up semijoin sweep instead:

every physical plan is a tree of probe steps (each step attaches one new
table), so processing the steps in *reverse* order visits every subtree
before its root.  One step folds the new table's surviving-row mask into
the existing side — ``mask[existing] &= existing key ∈ keys(new rows
still alive)`` — as one vectorized membership test, and after the sweep
the start table's mask is non-empty iff the join has at least one result
row.  A probe over k tables of n rows costs O(k·n log n) in C instead of
a Python-frame walk of the join.

Key comparisons must match the generic path *exactly*:

* **text ⋈ text** compares dictionary codes after translating one
  column's code space into the other's (a small translate array built
  once per edge and cached);
* **same-dtype arrays** (int ⋈ int, float ⋈ float, bool ⋈ bool) compare
  raw values with ``np.isin`` masked by the NULL bitmasks;
* **everything else** — mixed dtypes (int ⋈ float, bool ⋈ int, text ⋈
  non-text) and object columns (dates, overflowed ints) — drops to a
  Python-``set`` membership kernel, preserving Python's cross-type
  equality (``True == 1 == 1.0``) bit for bit.

Float columns containing NaN are rejected wholesale
(:attr:`ColumnKernel.nan_unsafe` — NaN never equals itself, so array
membership and the dict-probing reference disagree there); the executor
then keeps the generic path.  NULL keys never match (SQL semantics): the
text kernel's NULL code ``-1`` can never appear in a translated allowed
set, and the array/set kernels intersect with the NULL masks explicitly.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.dataset.sketches import hash_values

__all__ = ["EdgeKernel", "bloom_keep", "selection_mask", "semijoin_exists"]

# Row masks are ``np.ndarray`` (bool) or ``None`` meaning "every row".
_Mask = Optional[np.ndarray]


def selection_mask(size: int, selection) -> np.ndarray:
    """A boolean row mask with exactly ``selection``'s indexes set."""
    mask = np.zeros(size, dtype=np.bool_)
    if selection:
        mask[np.fromiter(selection, dtype=np.int64, count=len(selection))] = True
    return mask


def bloom_keep(kernel, rows: list, bloom) -> list:
    """Rows of ``rows`` whose key in ``kernel`` may be in ``bloom``.

    Vectorized pre-filter for the executor's Bloom probe pruning: gathers
    the selected rows' keys from an array-kind :class:`ColumnKernel`,
    hashes them through the sketch layer's canonical value hash, and
    keeps only rows whose key the Bloom filter does not rule out.  NULL
    keys are dropped (they can never join).  The hash equality classes
    match the scalar path exactly, so this returns the same subset, in
    the same order, as a per-row ``bloom.might_contain`` loop.
    """
    index = np.fromiter(rows, dtype=np.int64, count=len(rows))
    valid = kernel.valid[index]
    keep = valid.copy()
    if keep.any():
        hashes = hash_values(kernel.keys[index][valid])
        keep[valid] = bloom.contains_hashes(hashes)
    return [row for row, kept in zip(rows, keep.tolist()) if kept]


class EdgeKernel:
    """One join edge lowered onto two :class:`ColumnKernel` snapshots.

    Bound to specific kernel objects (``existing``/``new``): backends
    publish a fresh kernel after every append, so callers revalidate a
    cached edge by kernel identity and rebuild on mismatch.  The
    fully-unconstrained fold (``new_mask is None`` — by far the common
    case for interior tables of a probe) is computed once and cached.
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


def semijoin_exists(start_table: str, steps, edges, masks: dict) -> bool:
    """Whether the join admits at least one fully-assigned result row.

    ``steps``/``edges`` are the plan's probe steps with their aligned
    :class:`EdgeKernel` per step; ``masks`` maps table name → pushed-down
    row mask (missing or ``None`` = every row).  Iterating the steps in
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
