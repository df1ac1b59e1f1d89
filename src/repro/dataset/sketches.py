"""Statistics sketches: HyperLogLog and equi-depth histograms.

The planner's raw catalog counts (row counts, exact distinct counts) say
nothing about how two join-key columns *overlap*, and nothing about where
a numeric column's mass sits.  This module supplies the two cheap
summaries that close those gaps:

* :class:`HyperLogLog` — a distinct-count sketch whose registers merge by
  ``max``, so the union of two columns' sketches yields an estimate of
  ``|A ∪ B|`` and, by inclusion–exclusion, of the join-key intersection.
* :class:`EquiDepthHistogram` — bucket boundaries fixed at build time so
  range-predicate selectivity interpolates against observed quantiles
  instead of assuming uniformity.

Sketches only steer estimates; they never decide a probe (the executor's
semijoin sweep does that exactly).  Every sketch hashes through the
deterministic functions below — never Python's per-process salted
``hash()`` — so sketches built from array snapshots and from plain value
lists are byte-identical, survive pickling into process shards, and fold
appended deltas to the same registers a cold rebuild would produce (HLL
registers are an order-insensitive ``max`` fold; histogram bucket
*counts* fold while boundaries stay fixed, which is approximate by
design).

Hash canonicalization mirrors Python equality across numeric types:
``True == 1 == 1.0`` all hash identically, non-integral floats hash their
IEEE-754 bits, and strings/objects hash a ``blake2b`` digest — all
reproducible across processes and platforms.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterable, Optional, Sequence

import numpy as _np

from repro.dataset.types import to_float

__all__ = [
    "ColumnSketches",
    "EquiDepthHistogram",
    "HyperLogLog",
    "hash_value",
    "hash_values",
]

_MASK64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: Canonical quiet-NaN bit pattern; all NaN payloads collapse to this.
_CANONICAL_NAN_BITS = 0x7FF8000000000000


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-mixed 64-bit permutation."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _hash_bytes(payload: bytes) -> int:
    digest = blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_value(value: Any) -> int:
    """Deterministic 64-bit hash of one non-NULL cell value.

    Values that compare equal under Python semantics hash equal: bools,
    ints and integral floats share the integer path; a float exactly
    representable as a double matches an equal out-of-int64-range int via
    the bit-pattern path.  Unlike builtin ``hash()``, the result does not
    depend on ``PYTHONHASHSEED`` or the process.
    """
    if isinstance(value, bool):
        return _splitmix64(int(value))
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return _splitmix64(value & _MASK64)
        try:
            as_float = float(value)
        except OverflowError:
            as_float = None
        if as_float is not None and as_float == value:
            bits = struct.unpack("<Q", struct.pack("<d", as_float))[0]
            return _splitmix64(bits)
        return _splitmix64(_hash_bytes(b"i:" + str(value).encode("ascii")))
    if isinstance(value, float):
        if (
            math.isfinite(value)
            and _INT64_MIN <= value <= _INT64_MAX
            and value == int(value)
        ):
            return _splitmix64(int(value) & _MASK64)
        if value != value:
            return _splitmix64(_CANONICAL_NAN_BITS)
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        return _splitmix64(bits)
    if isinstance(value, str):
        return _splitmix64(_hash_bytes(b"s:" + value.encode("utf-8")))
    return _splitmix64(_hash_bytes(b"o:" + repr(value).encode("utf-8")))


def _vector_splitmix64(values):  # uint64 array -> uint64 array
    with _np.errstate(over="ignore"):
        values = values + _np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> _np.uint64(30))) * _np.uint64(
            0xBF58476D1CE4E5B9
        )
        values = (values ^ (values >> _np.uint64(27))) * _np.uint64(
            0x94D049BB133111EB
        )
    return values ^ (values >> _np.uint64(31))


def _vector_hash_array(array):
    """Vectorized :func:`hash_value` over an int64/float64/bool array.

    Bit-for-bit identical to the scalar path: integers (and integral
    floats in int64 range) reinterpret two's-complement into uint64;
    remaining floats hash their IEEE-754 bits with NaN canonicalized.
    """
    if array.dtype == _np.bool_:
        array = array.astype(_np.int64)
    if array.dtype == _np.int64:
        return _vector_splitmix64(array.view(_np.uint64))
    if array.dtype != _np.float64:
        array = array.astype(_np.float64)
    keys = _np.empty(array.shape, dtype=_np.uint64)
    integral = (
        _np.isfinite(array)
        & (array >= -(2.0 ** 63))
        & (array <= 2.0 ** 63 - 1024.0)
        & (_np.floor(array) == array)
    )
    keys[integral] = array[integral].astype(_np.int64).view(_np.uint64)
    rest = ~integral
    if rest.any():
        bits = array[rest].view(_np.uint64).copy()
        bits[_np.isnan(array[rest])] = _np.uint64(_CANONICAL_NAN_BITS)
        keys[rest] = bits
    return _vector_splitmix64(keys)


def hash_values(values: Any) -> Any:
    """Hash a batch of values: numpy array in, ``uint64`` array out;
    any other iterable in, list of ints out (``None`` entries skipped)."""
    if isinstance(values, _np.ndarray) and values.dtype in (
        _np.int64,
        _np.float64,
        _np.bool_,
    ):
        return _vector_hash_array(values)
    return [hash_value(value) for value in values if value is not None]


# ----------------------------------------------------------------------
# HyperLogLog
# ----------------------------------------------------------------------
class HyperLogLog:
    """Flajolet-style distinct-count sketch with ``2**precision`` byte
    registers.  ``add`` keeps per-register maxima, so folding appended
    values produces exactly the registers of a cold rebuild, and the
    register-wise ``max`` of two sketches is the sketch of the union."""

    __slots__ = ("precision", "registers")

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 16:
            raise ValueError("HyperLogLog precision must be in [4, 16]")
        self.precision = precision
        self.registers = bytearray(1 << precision)

    # -- updates -------------------------------------------------------
    def add_hash(self, hashed: int) -> None:
        index = hashed >> (64 - self.precision)
        remainder = hashed & ((1 << (64 - self.precision)) - 1)
        rank = (64 - self.precision) - remainder.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_value(self, value: Any) -> None:
        self.add_hash(hash_value(value))

    def add_hashes(self, hashes: Any) -> None:
        """Fold a batch of 64-bit hashes (vectorized for uint64 arrays)."""
        if isinstance(hashes, _np.ndarray):
            if not len(hashes):
                return
            shift = _np.uint64(64 - self.precision)
            index = (hashes >> shift).astype(_np.int64)
            remainder = hashes & _np.uint64((1 << (64 - self.precision)) - 1)
            rank = (
                _np.uint64(64 - self.precision)
                - _bit_length_u64(remainder)
                + _np.uint64(1)
            ).astype(_np.uint8)
            registers = _np.frombuffer(self.registers, dtype=_np.uint8).copy()
            _np.maximum.at(registers, index, rank)
            self.registers[:] = registers.tobytes()
            return
        for hashed in hashes:
            self.add_hash(hashed)

    # -- estimation ----------------------------------------------------
    def estimate(self) -> float:
        """The classic HLL estimate with the small-range correction.

        The harmonic sum ``Σ 2**-register`` is taken exactly from a
        histogram of the register ranks: scaled by ``2**top`` (the
        largest rank) it is the integer ``Σ count[rank] << (top - rank)``,
        and the raw estimate is one correctly rounded int/int division.
        The result depends only on the register bytes, however they were
        populated.
        """
        num = len(self.registers)
        counts = _np.bincount(
            _np.frombuffer(self.registers, dtype=_np.uint8)
        ).tolist()
        top = len(counts) - 1
        scaled = sum(
            count << (top - rank) for rank, count in enumerate(counts)
        )
        alpha = 0.7213 / (1.0 + 1.079 / num)
        numerator, denominator = (alpha * num * num).as_integer_ratio()
        raw = (numerator << top) / (denominator * scaled)
        zeros = counts[0]
        if raw <= 2.5 * num and zeros:
            return num * math.log(num / zeros)
        return raw

    def union_estimate(self, other: "HyperLogLog") -> float:
        """Estimated distinct count of the union of both sketches."""
        return self.merge(other).estimate()

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """A new sketch equal to the union (register-wise max)."""
        if other.precision != self.precision:
            raise ValueError("cannot merge HyperLogLogs of unequal precision")
        merged = HyperLogLog(self.precision)
        left = _np.frombuffer(self.registers, dtype=_np.uint8)
        right = _np.frombuffer(other.registers, dtype=_np.uint8)
        merged.registers[:] = _np.maximum(left, right).tobytes()
        return merged

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperLogLog)
            and self.precision == other.precision
            and self.registers == other.registers
        )

    def __getstate__(self):
        return (self.precision, bytes(self.registers))

    def __setstate__(self, state):
        self.precision, registers = state
        self.registers = bytearray(registers)


def _bit_length_u64(values):
    """Vectorized ``int.bit_length`` over a uint64 array (exact — float
    conversion would round values near powers of two)."""
    lengths = _np.zeros(values.shape, dtype=_np.uint64)
    remaining = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        threshold = _np.uint64(1) << _np.uint64(shift)
        above = remaining >= threshold
        lengths[above] += _np.uint64(shift)
        remaining[above] >>= _np.uint64(shift)
    lengths[remaining > 0] += _np.uint64(1)
    return lengths


# ----------------------------------------------------------------------
# Equi-depth histogram
# ----------------------------------------------------------------------
class EquiDepthHistogram:
    """Quantile histogram with boundaries frozen at build time.

    Built by index arithmetic over the sorted values (no interpolated
    percentiles), so arrays and value lists produce identical
    boundaries.  Folding
    an appended value bumps the covering bucket's count and stretches the
    outer boundaries; boundaries are *not* re-balanced, so a folded
    histogram approximates (rather than equals) a cold rebuild — the
    documented trade-off shared with the catalog's running moments.
    """

    MAX_BUCKETS = 16

    __slots__ = ("boundaries", "counts", "total")

    def __init__(
        self, boundaries: Sequence[float], counts: Sequence[int]
    ) -> None:
        self.boundaries = [float(value) for value in boundaries]
        self.counts = [int(count) for count in counts]
        self.total = sum(self.counts)

    @classmethod
    def from_values(
        cls, values: Iterable[Any], max_buckets: int = MAX_BUCKETS
    ) -> Optional["EquiDepthHistogram"]:
        """Build from an iterable of numeric values over their finite
        floats (an int beyond float range counts as an infinity and is
        skipped); ``None`` when no value is finite or one is not a
        number."""
        try:
            ordered = sorted(
                as_float
                for as_float in (to_float(value) for value in values)
                if math.isfinite(as_float)
            )
        except (TypeError, ValueError):
            return None
        if not ordered:
            return None
        buckets = max(1, min(max_buckets, len(ordered)))
        last = len(ordered) - 1
        boundaries = [
            ordered[(edge * last) // buckets] for edge in range(buckets)
        ]
        boundaries.append(ordered[-1])
        counts = [0] * buckets
        for value in ordered:
            counts[cls._bucket_of(boundaries, value)] += 1
        return cls(boundaries, counts)

    @staticmethod
    def _bucket_of(boundaries: Sequence[float], value: float) -> int:
        index = bisect_right(boundaries, value) - 1
        return min(max(index, 0), len(boundaries) - 2)

    def fold(self, value: Any) -> None:
        """Fold one appended value into the fixed-boundary buckets."""
        try:
            as_float = to_float(value)
        except (TypeError, ValueError):
            return
        if not math.isfinite(as_float):
            return
        if as_float < self.boundaries[0]:
            self.boundaries[0] = as_float
        if as_float > self.boundaries[-1]:
            self.boundaries[-1] = as_float
        self.counts[self._bucket_of(self.boundaries, as_float)] += 1
        self.total += 1

    # -- estimation ----------------------------------------------------
    def cdf(self, value: float) -> float:
        """Estimated fraction of values ``<= value`` (piecewise linear,
        monotone non-decreasing in ``value``)."""
        if not self.total:
            return 0.0
        boundaries = self.boundaries
        if value < boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        index = self._bucket_of(boundaries, value)
        low, high = boundaries[index], boundaries[index + 1]
        within = 1.0 if high <= low else (value - low) / (high - low)
        below = sum(self.counts[:index])
        return (below + self.counts[index] * within) / self.total

    def selectivity(
        self, low: Optional[float], high: Optional[float]
    ) -> float:
        """Estimated fraction of values in ``[low, high]`` (either bound
        may be ``None`` for an open interval)."""
        upper = 1.0 if high is None else self.cdf(float(high))
        lower = 0.0 if low is None else self.cdf(float(low))
        if low is not None and high is not None and float(low) > float(high):
            return 0.0
        return max(0.0, upper - lower)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EquiDepthHistogram)
            and self.boundaries == other.boundaries
            and self.counts == other.counts
        )

    def __getstate__(self):
        return (tuple(self.boundaries), tuple(self.counts))

    def __setstate__(self, state):
        boundaries, counts = state
        self.boundaries = list(boundaries)
        self.counts = list(counts)
        self.total = sum(self.counts)


# ----------------------------------------------------------------------
# Per-column container
# ----------------------------------------------------------------------
@dataclass
class ColumnSketches:
    """The sketches the catalog maintains for one column; ``histogram``
    only for numeric columns."""

    hll: HyperLogLog
    histogram: Optional[EquiDepthHistogram] = None

    def fold_value(self, value: Any) -> None:
        """Fold one appended non-NULL value into every sketch."""
        self.hll.add_value(value)
        if self.histogram is not None:
            self.histogram.fold(value)


def build_column_sketches(
    data_type: Any,
    *,
    values: Optional[Iterable[Any]] = None,
    kernel: Any = None,
    dictionary: Optional[Sequence[str]] = None,
) -> ColumnSketches:
    """Build the sketches for one column from whichever source is best.

    ``dictionary`` (text columns: the backend's distinct set) wins, then
    ``kernel`` (an array-kind column snapshot), then ``values`` (generic
    iteration, e.g. date/time columns held as objects); the resulting
    sketches are identical whichever path ran, because all three hash
    through :func:`hash_value`'s equality classes.
    """
    sketches = ColumnSketches(hll=HyperLogLog())
    numeric = bool(getattr(data_type, "is_numeric", False))
    if dictionary is not None:
        sketches.hll.add_hashes([hash_value(entry) for entry in dictionary])
        return sketches

    if kernel is not None and kernel.kind == "array":
        present = kernel.keys[kernel.valid]
        sketches.hll.add_hashes(hash_values(present))
        if numeric:
            sketches.histogram = EquiDepthHistogram.from_values(
                present.tolist()
            )
        return sketches

    non_null = [value for value in (values or ()) if value is not None]
    sketches.hll.add_hashes([hash_value(value) for value in non_null])
    if numeric:
        sketches.histogram = EquiDepthHistogram.from_values(non_null)
    return sketches
