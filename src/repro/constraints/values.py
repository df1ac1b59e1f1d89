"""Value constraints: the row-level half of the multiresolution language.

A *value constraint* restricts a single cell of the target schema
(Figure 1: ``ck := pv | pv logicalop pv``).  The concrete forms supported
mirror the paper's examples:

* :class:`ExactValue` — the classic keyword of sample-driven mapping
  ("Lake Tahoe").  High resolution.
* :class:`OneOf` — a disjunction of possible values
  ("California || Nevada").  Medium resolution.
* :class:`Range` — a numeric value range ("[400, 600]").  Medium resolution.
* :class:`Predicate` — a single comparison against a constant (">= 0").
  Medium resolution.
* :class:`Conjunction` / :class:`Disjunction` — logical combinations of the
  above, per the grammar's ``logicalop``.
* :class:`AnyValue` — an explicitly unconstrained cell.

String matching uses keyword semantics: a cell matches an exact value when
it equals it case-insensitively or contains it as a whole word, matching
how sample-driven systems probe a DBMS inverted index.

Every constraint tests one cell (:meth:`ValueConstraint.matches`) or a
whole column snapshot at once (:meth:`ValueConstraint.mask`, the
executor's pushdown scan).  A mask equals ``matches`` applied to every
non-NULL cell: numeric equality and ranges over typed arrays are single
vectorized comparisons, text is tested once per dictionary entry, and
everything else is tested once per distinct value.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from repro.constraints.resolution import Resolution
from repro.errors import ConstraintError

if TYPE_CHECKING:
    from repro.storage.column_store import ColumnKernel

__all__ = [
    "ValueConstraint",
    "ExactValue",
    "OneOf",
    "Range",
    "Predicate",
    "Conjunction",
    "Disjunction",
    "AnyValue",
    "COMPARISON_OPERATORS",
]

COMPARISON_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

#: Compiled keyword patterns kept for reuse; the least recently used
#: one is dropped first, so sample texts cannot grow the cache forever.
_WORD_PATTERN_CACHE_SIZE = 512

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)
#: Every int of at most this magnitude converts to float64 exactly.
_FLOAT64_EXACT_INT = 2**53


def _typed(value: Any) -> tuple:
    """A value tagged with its type for constraint identity.

    Python hashes/compares ``True == 1`` and ``1 == 1.0``, but matching
    semantics differ by type (booleans match by identity; numeric text
    renders differently), so constraint keys must not let such values
    collide — they feed equality, hashing and executor memo keys.
    """
    return (type(value).__name__, value)


def _normalize_text(value: Any) -> str:
    return str(value).strip().casefold()


@functools.lru_cache(maxsize=_WORD_PATTERN_CACHE_SIZE)
def _word_pattern(target_text: str) -> re.Pattern:
    """The pattern finding ``target_text`` as a whole word."""
    return re.compile(
        r"(?<![A-Za-z0-9])" + re.escape(target_text) + r"(?![A-Za-z0-9])"
    )


def _keyword_equal(cell_text: str, target_text: str, pattern: re.Pattern) -> bool:
    """Keyword equality of two normalized texts: the cell equals the
    target or contains it as a whole word (``pattern``)."""
    if cell_text == target_text:
        return True
    # A whole-word match is a substring match first; the substring test
    # is far cheaper than the pattern search.
    return target_text in cell_text and pattern.search(cell_text) is not None


def _values_equal(cell: Any, target: Any) -> bool:
    """Equality with keyword semantics for strings and numeric tolerance."""
    if cell is None or target is None:
        return False
    if isinstance(cell, str) or isinstance(target, str):
        target_text = _normalize_text(target)
        return _keyword_equal(
            _normalize_text(cell), target_text, _word_pattern(target_text)
        )
    if isinstance(cell, bool) or isinstance(target, bool):
        return cell is target
    if isinstance(cell, (int, float)) and isinstance(target, (int, float)):
        try:
            return float(cell) == float(target)
        except OverflowError:
            # An int beyond float range equals no float: compare exactly.
            return cell == target
    return cell == target


def _compare(cell: Any, op: str, constant: Any) -> bool:
    """Apply a comparison operator, returning False on type mismatch."""
    if cell is None:
        return False
    func = COMPARISON_OPERATORS.get(op)
    if func is None:
        raise ConstraintError(f"unknown comparison operator: {op!r}")
    if op in ("==", "="):
        return _values_equal(cell, constant)
    if op == "!=":
        return not _values_equal(cell, constant)
    cell_is_text = isinstance(cell, str)
    constant_is_text = isinstance(constant, str)
    try:
        if cell_is_text and constant_is_text:
            return func(_normalize_text(cell), _normalize_text(constant))
        if cell_is_text != constant_is_text:
            # Ordering a string against a number is a type mismatch, not an
            # error: the cell simply does not satisfy the predicate.
            return False
        return func(cell, constant)
    except TypeError:
        return False


# ----------------------------------------------------------------------
# Text entries: the target's normalization and pattern prepared once
# ----------------------------------------------------------------------
def _text_equals(target: Any) -> Callable[[str], bool]:
    """``_values_equal(entry, target)`` for text entries."""
    if target is None:
        return lambda entry: False
    target_text = _normalize_text(target)
    pattern = _word_pattern(target_text)
    return lambda entry: _keyword_equal(
        _normalize_text(entry), target_text, pattern
    )


def _text_compares(op: str, constant: Any) -> Callable[[str], bool]:
    """``_compare(entry, op, constant)`` for text entries."""
    if op == "==":
        return _text_equals(constant)
    if op == "!=":
        equals = _text_equals(constant)
        return lambda entry: not equals(entry)
    if not isinstance(constant, str):
        # Ordering text against a non-text constant is a type mismatch.
        return lambda entry: False
    func = COMPARISON_OPERATORS[op]
    constant_text = _normalize_text(constant)
    return lambda entry: func(_normalize_text(entry), constant_text)


# ----------------------------------------------------------------------
# Column masks over ColumnKernel snapshots
# ----------------------------------------------------------------------
def _is_number(value: Any) -> bool:
    """A plain int or float (bools and other subclasses excluded)."""
    return type(value) is int or type(value) is float


def _equal_mask(kernel: "ColumnKernel", target: Any) -> Optional[np.ndarray]:
    """``_values_equal(cell, target)`` over an array kernel, or ``None``
    unless ``target`` is a plain number."""
    if not _is_number(target):
        return None
    keys = kernel.keys
    if keys.dtype == np.bool_:
        # Booleans match by identity, so no number equals one.
        return np.zeros(len(keys), dtype=np.bool_)
    try:
        value = float(target)
    except OverflowError:
        return None
    # Numbers compare as floats, as ``float(cell) == float(target)``.
    return (keys.astype(np.float64, copy=False) == value) & kernel.valid


def _order_mask(
    kernel: "ColumnKernel", op: str, bound: Any
) -> Optional[np.ndarray]:
    """``_compare(cell, op, bound)`` for an ordering ``op`` over an array
    kernel, or ``None`` unless the column's dtype compares ``bound``
    exactly, as Python compares ints with floats."""
    if not _is_number(bound):
        return None
    keys = kernel.keys
    compare = COMPARISON_OPERATORS[op]
    if keys.dtype == np.float64:
        if type(bound) is int and abs(bound) > _FLOAT64_EXACT_INT:
            return None
        return compare(keys, float(bound)) & kernel.valid
    # int64 and bool columns compare as integers.  An integer is above a
    # real bound iff it is above its floor, and below it iff below its
    # ceiling.
    if type(bound) is float:
        if not math.isfinite(bound):
            return None
        bound = math.floor(bound) if op in (">", "<=") else math.ceil(bound)
    if not _INT64_MIN <= bound <= _INT64_MAX:
        return None
    integers = keys.astype(np.int64, copy=False)
    return compare(integers, np.int64(bound)) & kernel.valid


def _dictionary_mask(
    kernel: "ColumnKernel", test: Callable[[str], bool]
) -> np.ndarray:
    """A text kernel's mask: ``test`` once per dictionary entry, then a
    lookup by code.  NULL rows (code -1) never index the lookup."""
    dictionary = kernel.dictionary
    lookup = np.fromiter(
        map(test, dictionary), dtype=np.bool_, count=len(dictionary)
    )
    mask = np.zeros(len(kernel.keys), dtype=np.bool_)
    valid = kernel.valid
    mask[valid] = lookup[kernel.keys[valid]]
    return mask


def _distinct_mask(
    kernel: "ColumnKernel", test: Callable[[Any], bool]
) -> np.ndarray:
    """An array kernel's mask: ``test`` once per distinct value, then
    ``isin``.

    Floats are told apart by bit pattern, so NaN cells still meet
    ``test`` (NaN != NaN would hide them from ``isin``) and -0.0 is
    tested apart from 0.0 (their texts differ).
    """
    keys, valid = kernel.keys, kernel.valid
    codes = keys.view(np.int64) if keys.dtype == np.float64 else keys
    distinct = np.unique(codes[valid])
    values = distinct.view(keys.dtype).tolist()
    hits = np.fromiter(map(test, values), dtype=np.bool_, count=len(values))
    return np.isin(codes, distinct[hits]) & valid


def _row_mask(
    kernel: "ColumnKernel", test: Callable[[Any], bool]
) -> np.ndarray:
    """An object kernel's mask: ``test`` once per non-NULL row."""
    rows = zip(kernel.keys.tolist(), kernel.valid.tolist())
    return np.fromiter(
        (is_valid and test(value) for value, is_valid in rows),
        dtype=np.bool_,
        count=len(kernel.keys),
    )


class ValueConstraint(ABC):
    """Base class for every row-level (cell) constraint.

    Constraints compare and hash by typed content (:meth:`_key`).  The
    hash is computed once per object and kept in the ``_hash`` slot:
    every class here declares ``__slots__``, so the cache costs no memory
    beyond the slot.  The cached hash never leaves its process, because
    ``str`` hashes differ under each ``PYTHONHASHSEED``: copies and
    pickles carry the constraint's content only (:meth:`__getstate__`),
    and hash afresh.
    """

    __slots__ = ("_hash",)

    @abstractmethod
    def matches(self, value: Any) -> bool:
        """Whether a cell value satisfies this constraint."""

    def mask(self, kernel: "ColumnKernel") -> np.ndarray:
        """One bool per row of a column snapshot: whether its cell
        satisfies this constraint.

        Equals ``[v is not None and self.matches(v) for v in column]``
        for the column the
        :class:`~repro.storage.column_store.ColumnKernel` holds.
        """
        if kernel.kind == "text":
            return _dictionary_mask(kernel, self._text_test())
        if kernel.kind == "array":
            mask = self._array_mask(kernel)
            return _distinct_mask(kernel, self.matches) if mask is None else mask
        return _row_mask(kernel, self.matches)

    def _text_test(self) -> Callable[[str], bool]:
        """:meth:`matches` for text cells, with per-target work done once."""
        return self.matches

    def _array_mask(self, kernel: "ColumnKernel") -> Optional[np.ndarray]:
        """The mask over an array kernel as vectorized comparisons, or
        ``None`` to test each distinct value with :meth:`matches`."""
        return None

    @property
    @abstractmethod
    def resolution(self) -> Resolution:
        """The constraint's resolution level."""

    def seed_values(self) -> list[Any]:
        """Literal values usable as inverted-index probes (may be empty)."""
        return []

    @abstractmethod
    def describe(self) -> str:
        """Render the constraint in the demo's textual syntax."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueConstraint):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        value = self._hash = hash((type(self).__name__, self._key()))
        return value

    def __getstate__(self) -> tuple:
        """Content for :mod:`copy` and :mod:`pickle`: every slot but
        ``_hash`` (and the ``__dict__`` of a subclass without slots).

        Defined here rather than inherited because ``object`` has no
        ``__getstate__`` before Python 3.11.
        """
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in vars(cls).get("__slots__", ())
            if name != "_hash" and hasattr(self, name)
        }
        return getattr(self, "__dict__", None), slots

    def _key(self) -> tuple:
        return (self.describe(),)


class ExactValue(ValueConstraint):
    """A high-resolution constraint: the cell must contain this value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        if value is None:
            raise ConstraintError("ExactValue cannot be NULL; use AnyValue")
        self.value = value

    def matches(self, value: Any) -> bool:
        return _values_equal(value, self.value)

    def _text_test(self) -> Callable[[str], bool]:
        return _text_equals(self.value)

    def _array_mask(self, kernel: "ColumnKernel") -> Optional[np.ndarray]:
        return _equal_mask(kernel, self.value)

    @property
    def resolution(self) -> Resolution:
        return Resolution.HIGH

    def seed_values(self) -> list[Any]:
        return [self.value]

    def describe(self) -> str:
        return str(self.value)

    def _key(self) -> tuple:
        return (_typed(self.value),)


class OneOf(ValueConstraint):
    """A disjunction of possible exact values ("California || Nevada")."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Any]):
        values = [value for value in values if value is not None]
        if not values:
            raise ConstraintError("OneOf requires at least one non-NULL value")
        self.values = tuple(values)

    def matches(self, value: Any) -> bool:
        return any(_values_equal(value, candidate) for candidate in self.values)

    def _text_test(self) -> Callable[[str], bool]:
        targets = [
            (text, _word_pattern(text))
            for text in map(_normalize_text, self.values)
        ]

        def test(entry: str) -> bool:
            entry_text = _normalize_text(entry)
            for text, pattern in targets:
                if _keyword_equal(entry_text, text, pattern):
                    return True
            return False

        return test

    def _array_mask(self, kernel: "ColumnKernel") -> Optional[np.ndarray]:
        masks = [_equal_mask(kernel, candidate) for candidate in self.values]
        if any(mask is None for mask in masks):
            return None
        return np.logical_or.reduce(masks)

    @property
    def resolution(self) -> Resolution:
        return Resolution.MEDIUM if len(self.values) > 1 else Resolution.HIGH

    def seed_values(self) -> list[Any]:
        return list(self.values)

    def describe(self) -> str:
        return " || ".join(str(value) for value in self.values)

    def _key(self) -> tuple:
        return tuple(_typed(value) for value in self.values)


class Range(ValueConstraint):
    """A numeric value range, optionally open on either side."""

    __slots__ = ("low", "high", "low_inclusive", "high_inclusive")

    def __init__(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ):
        if low is None and high is None:
            raise ConstraintError("Range requires at least one bound")
        if (
            low is not None
            and high is not None
            and not isinstance(low, str)
            and not isinstance(high, str)
            and low > high
        ):
            raise ConstraintError(f"Range lower bound {low!r} exceeds upper bound {high!r}")
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def _bounds(self) -> list[tuple[str, Any]]:
        """The (operator, bound) comparisons a matching cell passes."""
        bounds = []
        if self.low is not None:
            bounds.append((">=" if self.low_inclusive else ">", self.low))
        if self.high is not None:
            bounds.append(("<=" if self.high_inclusive else "<", self.high))
        return bounds

    def matches(self, value: Any) -> bool:
        if value is None:
            return False
        return all(_compare(value, op, bound) for op, bound in self._bounds())

    def _text_test(self) -> Callable[[str], bool]:
        tests = [_text_compares(op, bound) for op, bound in self._bounds()]
        return lambda entry: all(test(entry) for test in tests)

    def _array_mask(self, kernel: "ColumnKernel") -> Optional[np.ndarray]:
        masks = [_order_mask(kernel, op, bound) for op, bound in self._bounds()]
        if any(mask is None for mask in masks):
            return None
        return np.logical_and.reduce(masks)

    @property
    def resolution(self) -> Resolution:
        return Resolution.MEDIUM

    def describe(self) -> str:
        low = "" if self.low is None else str(self.low)
        high = "" if self.high is None else str(self.high)
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        return f"{left}{low}, {high}{right}"

    def _key(self) -> tuple:
        return (
            _typed(self.low),
            _typed(self.high),
            self.low_inclusive,
            self.high_inclusive,
        )


class Predicate(ValueConstraint):
    """A single comparison against a constant, e.g. ``>= 0``."""

    __slots__ = ("op", "constant")

    def __init__(self, op: str, constant: Any):
        if op not in COMPARISON_OPERATORS:
            raise ConstraintError(f"unknown comparison operator: {op!r}")
        self.op = "==" if op == "=" else op
        self.constant = constant

    def matches(self, value: Any) -> bool:
        return _compare(value, self.op, self.constant)

    def _text_test(self) -> Callable[[str], bool]:
        return _text_compares(self.op, self.constant)

    def _array_mask(self, kernel: "ColumnKernel") -> Optional[np.ndarray]:
        if self.op == "==":
            return _equal_mask(kernel, self.constant)
        if self.op == "!=":
            equal = _equal_mask(kernel, self.constant)
            return None if equal is None else kernel.valid & ~equal
        return _order_mask(kernel, self.op, self.constant)

    @property
    def resolution(self) -> Resolution:
        return Resolution.HIGH if self.op == "==" else Resolution.MEDIUM

    def seed_values(self) -> list[Any]:
        return [self.constant] if self.op == "==" else []

    def describe(self) -> str:
        return f"{self.op} {self.constant}"

    def _key(self) -> tuple:
        return (self.op, _typed(self.constant))


class Conjunction(ValueConstraint):
    """Logical AND of value constraints."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[ValueConstraint]):
        parts = list(parts)
        if len(parts) < 2:
            raise ConstraintError("Conjunction requires at least two parts")
        self.parts = tuple(parts)

    def matches(self, value: Any) -> bool:
        return all(part.matches(value) for part in self.parts)

    def mask(self, kernel: "ColumnKernel") -> np.ndarray:
        return np.logical_and.reduce([part.mask(kernel) for part in self.parts])

    @property
    def resolution(self) -> Resolution:
        return Resolution(max(part.resolution for part in self.parts))

    def seed_values(self) -> list[Any]:
        seeds: list[Any] = []
        for part in self.parts:
            seeds.extend(part.seed_values())
        return seeds

    def describe(self) -> str:
        return " && ".join(part.describe() for part in self.parts)

    def _key(self) -> tuple:
        return (self.parts,)


class Disjunction(ValueConstraint):
    """Logical OR of value constraints."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[ValueConstraint]):
        parts = list(parts)
        if len(parts) < 2:
            raise ConstraintError("Disjunction requires at least two parts")
        self.parts = tuple(parts)

    def matches(self, value: Any) -> bool:
        return any(part.matches(value) for part in self.parts)

    def mask(self, kernel: "ColumnKernel") -> np.ndarray:
        return np.logical_or.reduce([part.mask(kernel) for part in self.parts])

    @property
    def resolution(self) -> Resolution:
        return Resolution(min(part.resolution for part in self.parts))

    def seed_values(self) -> list[Any]:
        seeds: list[Any] = []
        for part in self.parts:
            seeds.extend(part.seed_values())
        return seeds

    def describe(self) -> str:
        return " || ".join(part.describe() for part in self.parts)

    def _key(self) -> tuple:
        return (self.parts,)


class AnyValue(ValueConstraint):
    """An explicitly unconstrained (but non-NULL) cell."""

    __slots__ = ()

    def matches(self, value: Any) -> bool:
        return value is not None

    def mask(self, kernel: "ColumnKernel") -> np.ndarray:
        return kernel.valid.copy()

    @property
    def resolution(self) -> Resolution:
        return Resolution.LOW

    def describe(self) -> str:
        return "*"

    def _key(self) -> tuple:
        return ()
