"""Reference edge kernel for the kernel differential test.

This is :class:`repro.query.kernels.EdgeKernel` as it stood while every
fold collected the new side's surviving keys (``np.unique`` over
dictionary codes or typed values, a Python ``set`` on mixed-type and
object edges) and tested the existing side's keys against them
(``np.isin``, or ``in``), kept verbatim below this docstring.
:meth:`EdgeKernel.matches` numbered mixed-type keys in a per-call
``dict``.

It is the oracle :mod:`tests.query.test_kernels_reference` holds the
coded :class:`repro.query.kernels.EdgeKernel` to.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

__all__ = ["EdgeKernel"]

# Row masks are ``np.ndarray`` (bool) or ``None`` meaning "every row".
_Mask = Optional[np.ndarray]


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
