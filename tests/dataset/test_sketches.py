"""Property tests for the statistics-sketch layer (ISSUE 10 satellite).

The guarantees the planner and executor lean on are *properties*, not
point values, so they are tested as such over seeded random inputs:

* :func:`hash_value` respects Python equality classes and matches its
  vectorized counterpart bit for bit;
* :class:`HyperLogLog` estimates land within the sketch's error bound,
  merge is exactly the union, and folding appended values reproduces a
  cold rebuild's registers regardless of order or batching;
* :class:`BloomFilter` never reports a present value absent — including
  values folded in after construction — and keeps the false-positive
  rate under its sizing target;
* :class:`EquiDepthHistogram` CDFs are monotone and bounded before and
  after fixed-boundary folds;
* sketches built vectorized from column array snapshots are
  byte-identical to sketches built from the same columns' plain values,
  ``apply_delta`` folds reach the cold-rebuild state, and everything
  survives pickling (the fork/spawn round trip process shards rely on).
"""

from __future__ import annotations

import math
import pickle
import random
import struct

import numpy as np
import pytest

from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef
from repro.dataset.sketches import (
    BloomFilter,
    EquiDepthHistogram,
    HyperLogLog,
    build_column_sketches,
    hash_value,
    hash_values,
)
from repro.datasets.synthetic import generate_synthetic_database


def _random_values(rng: random.Random, count: int) -> list:
    """A deterministic mixed bag of the cell types columns hold."""
    values = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            values.append(rng.randrange(-(10 ** 9), 10 ** 9))
        elif kind == 1:
            values.append(rng.random() * 1e6 - 5e5)
        elif kind == 2:
            values.append(f"label-{rng.randrange(10 ** 6)}")
        else:
            values.append(bool(rng.randrange(2)))
    return values


class TestHashValue:
    def test_python_equality_classes_hash_equal(self):
        assert hash_value(True) == hash_value(1) == hash_value(1.0)
        assert hash_value(False) == hash_value(0) == hash_value(-0.0)
        assert hash_value(7) == hash_value(7.0)
        # Out-of-int64-range ints match their exact float twin.
        assert hash_value(2 ** 80) == hash_value(float(2 ** 80))

    def test_unequal_values_hash_differently(self):
        rng = random.Random(1)
        values = _random_values(rng, 2000)
        buckets = {}
        for value in values:
            buckets.setdefault(hash_value(value), set()).add(
                value if not isinstance(value, bool) else int(value)
            )
        # 64-bit hashes over 2k values: a collision would be a bug.
        for seen in buckets.values():
            assert len({v == w for v in seen for w in seen}) == 1

    def test_all_nan_payloads_collapse(self):
        quiet = float("nan")
        weird_payload = struct.unpack(
            "<d", struct.pack("<Q", 0x7FF8_0000_0000_00AB)
        )[0]
        assert math.isnan(weird_payload)
        assert hash_value(quiet) == hash_value(weird_payload)

    @pytest.mark.parametrize("dtype", ["int64", "float64", "bool"])
    def test_vectorized_hash_matches_scalar(self, dtype):
        rng = np.random.default_rng(7)
        if dtype == "int64":
            array = rng.integers(-(2 ** 62), 2 ** 62, size=500)
        elif dtype == "float64":
            array = np.concatenate([
                rng.normal(0.0, 1e9, size=400),
                np.array([0.0, -0.0, 1.5, np.nan, np.inf, -np.inf, 2.0 ** 70]),
                rng.integers(-(10 ** 6), 10 ** 6, size=100).astype(np.float64),
            ])
        else:
            array = rng.integers(0, 2, size=64).astype(bool)
        hashed = hash_values(array)
        assert hashed.dtype == np.uint64
        for value, vector_hash in zip(array.tolist(), hashed.tolist()):
            assert hash_value(value) == vector_hash


class TestHyperLogLog:
    @pytest.mark.parametrize("distinct", [50, 1000, 20000])
    def test_estimate_within_error_bound(self, distinct):
        sketch = HyperLogLog()
        sketch.add_hashes([hash_value(f"v{i}") for i in range(distinct)])
        # Precision 12 gives a ~1.6% standard error; 3 sigma + the
        # small-range correction comfortably fits inside 6%.
        assert sketch.estimate() == pytest.approx(distinct, rel=0.06)

    def test_duplicates_do_not_inflate_the_estimate(self):
        once = HyperLogLog()
        thrice = HyperLogLog()
        hashes = [hash_value(i) for i in range(5000)]
        once.add_hashes(hashes)
        thrice.add_hashes(hashes * 3)
        assert once == thrice

    def test_fold_order_and_batching_are_irrelevant(self):
        values = _random_values(random.Random(2), 3000)
        one_shot = HyperLogLog()
        one_shot.add_hashes([hash_value(v) for v in values])

        shuffled = list(values)
        random.Random(3).shuffle(shuffled)
        incremental = HyperLogLog()
        for value in shuffled[:1000]:
            incremental.add_value(value)  # scalar folds
        incremental.add_hashes(
            np.array([hash_value(v) for v in shuffled[1000:]], dtype=np.uint64)
        )  # vectorized fold of the rest
        assert incremental == one_shot

    def test_merge_is_exactly_the_union(self):
        left_values = [f"a{i}" for i in range(2000)]
        right_values = [f"a{i}" for i in range(1000, 3000)]
        left = HyperLogLog()
        right = HyperLogLog()
        union = HyperLogLog()
        left.add_hashes([hash_value(v) for v in left_values])
        right.add_hashes([hash_value(v) for v in right_values])
        union.add_hashes(
            [hash_value(v) for v in left_values + right_values]
        )
        assert left.merge(right) == union
        assert left.merge(right) == right.merge(left)
        assert left.union_estimate(right) == union.estimate()

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(12).merge(HyperLogLog(10))

    def test_pickle_round_trip(self):
        sketch = HyperLogLog()
        sketch.add_hashes([hash_value(i) for i in range(500)])
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone == sketch
        assert clone.estimate() == sketch.estimate()


def _loop_estimate(sketch: HyperLogLog) -> float:
    """``HyperLogLog.estimate`` as it was before the rank histogram: a
    Python loop over the registers, kept verbatim as the oracle."""
    registers = sketch.registers
    num = len(registers)
    harmonic = 0.0
    zeros = 0
    for register in registers:
        harmonic += 2.0 ** -register
        if register == 0:
            zeros += 1
    alpha = 0.7213 / (1.0 + 1.079 / num)
    raw = alpha * num * num / harmonic
    if raw <= 2.5 * num and zeros:
        return num * math.log(num / zeros)
    return raw


class TestHyperLogLogEstimate:
    """The exact rank-histogram estimate equals the register loop.

    With every rank at most 41 each partial sum of the loop is exact in
    a double (the sum stays below 2**12, so its last place is at most
    2**-41), which makes bit-for-bit equality the expected outcome, not
    a coincidence of rounding.
    """

    @pytest.mark.parametrize("seed", range(30))
    def test_random_registers(self, seed):
        rng = random.Random(seed)
        sketch = HyperLogLog(rng.choice([4, 8, 12, 16]))
        top = rng.choice([1, 2, 5, 20, 41])
        zero_share = rng.random()
        for index in range(len(sketch.registers)):
            if rng.random() >= zero_share:
                sketch.registers[index] = min(
                    top, 1 + int(rng.expovariate(rng.choice([0.3, 1.0, 3.0])))
                )
        assert sketch.estimate() == _loop_estimate(sketch)

    def test_all_zero_registers(self):
        for precision in (4, 12, 16):
            sketch = HyperLogLog(precision)
            assert sketch.estimate() == _loop_estimate(sketch) == 0.0

    def test_every_catalog_sketch(self, mondial_db, imdb_db, nba_db):
        databases = [mondial_db, imdb_db, nba_db, generate_synthetic_database(
            num_tables=6, rows_per_table=5_000, topology="random", seed=0,
            skew=1.1, dangling_fk_fraction=0.3,
        )]
        checked = 0
        for database in databases:
            catalog = MetadataCatalog.build(database)
            for ref in _sketch_refs(database):
                sketch = catalog.sketches(ref).hll
                assert sketch.estimate() == _loop_estimate(sketch), ref
                checked += 1
        assert checked > 75


class TestBloomFilter:
    def test_with_capacity_sizes_power_of_two_within_clamps(self):
        for expected in (0, 1, 10, 1000, 10 ** 5, 10 ** 9):
            bloom = BloomFilter.with_capacity(expected)
            assert bloom.num_bits & (bloom.num_bits - 1) == 0
            assert BloomFilter.MIN_BITS <= bloom.num_bits <= BloomFilter.MAX_BITS
            if BloomFilter.MIN_BITS <= expected * BloomFilter.BITS_PER_KEY:
                assert (
                    bloom.num_bits >= expected * BloomFilter.BITS_PER_KEY
                    or bloom.num_bits == BloomFilter.MAX_BITS
                )

    def test_no_false_negatives_ever(self):
        values = _random_values(random.Random(4), 4000)
        bloom = BloomFilter.with_capacity(len(values))
        bloom.add_hashes([hash_value(v) for v in values])
        assert all(bloom.might_contain(v) for v in values)

    def test_no_false_negatives_across_appended_folds(self):
        # The delta-fold lifecycle: build for an expected capacity, then
        # keep folding appended keys in. Membership must keep holding
        # even past the sizing estimate.
        bloom = BloomFilter.with_capacity(1000)
        present = []
        rng = random.Random(5)
        for batch in range(4):
            appended = [rng.randrange(10 ** 12) for _ in range(1000)]
            if batch % 2:
                bloom.add_hashes(
                    np.array([hash_value(v) for v in appended], dtype=np.uint64)
                )
            else:
                for value in appended:
                    bloom.add_value(value)
            present.extend(appended)
            assert all(bloom.might_contain(v) for v in present)

    def test_false_positive_rate_under_sizing_target(self):
        keys = 4096
        bloom = BloomFilter.with_capacity(keys)
        bloom.add_hashes([hash_value(i) for i in range(keys)])
        absent = range(10 ** 7, 10 ** 7 + 20000)
        false_positives = sum(bloom.might_contain(i) for i in absent)
        # Sized at 16 bits/key the analytic rate is ~7e-4; allow 5x.
        assert false_positives / 20000 < 5e-3

    def test_vectorized_membership_matches_scalar(self):
        bloom = BloomFilter.with_capacity(500)
        bloom.add_hashes([hash_value(i) for i in range(500)])
        probes = np.array(
            [hash_value(i) for i in range(0, 1000)], dtype=np.uint64
        )
        mask = bloom.contains_hashes(probes)
        for hashed, kept in zip(probes.tolist(), mask.tolist()):
            assert bloom.might_contain_hash(hashed) == kept
        assert mask[:500].all()  # the present half, no false negatives

    def test_pickle_round_trip(self):
        bloom = BloomFilter.with_capacity(100)
        bloom.add_hashes([hash_value(i) for i in range(100)])
        clone = pickle.loads(pickle.dumps(bloom))
        assert clone == bloom
        assert all(clone.might_contain(i) for i in range(100))


class TestEquiDepthHistogram:
    def _skewed_values(self, count=5000):
        rng = random.Random(6)
        return [rng.paretovariate(1.2) * 10 for _ in range(count)]

    def test_cdf_is_monotone_and_bounded(self):
        histogram = EquiDepthHistogram.from_values(self._skewed_values())
        low, high = histogram.boundaries[0], histogram.boundaries[-1]
        probes = [
            low - 1.0,
            *(low + (high - low) * i / 200 for i in range(201)),
            high + 1.0,
        ]
        cdfs = [histogram.cdf(p) for p in probes]
        assert all(0.0 <= c <= 1.0 for c in cdfs)
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))
        assert histogram.cdf(low - 1.0) == 0.0
        assert histogram.cdf(high) == 1.0

    def test_build_is_order_insensitive(self):
        values = self._skewed_values()
        shuffled = list(values)
        random.Random(7).shuffle(shuffled)
        assert EquiDepthHistogram.from_values(
            values
        ) == EquiDepthHistogram.from_values(shuffled)

    def test_selectivity_edges(self):
        histogram = EquiDepthHistogram.from_values(self._skewed_values())
        assert histogram.selectivity(None, None) == pytest.approx(1.0)
        assert histogram.selectivity(5.0, 1.0) == 0.0
        low, high = histogram.boundaries[0], histogram.boundaries[-1]
        mid = (low + high) / 2
        split = histogram.selectivity(None, mid) + histogram.selectivity(
            mid, None
        )
        # The closed interval double-counts only the mass exactly at mid.
        assert split == pytest.approx(1.0, abs=0.05)

    def test_fold_keeps_cdf_monotone_and_counts_total(self):
        values = self._skewed_values(2000)
        histogram = EquiDepthHistogram.from_values(values)
        rng = random.Random(8)
        for _ in range(500):
            histogram.fold(rng.paretovariate(1.2) * 10 - 5.0)
        assert histogram.total == 2500
        low, high = histogram.boundaries[0], histogram.boundaries[-1]
        probes = [low + (high - low) * i / 100 for i in range(101)]
        cdfs = [histogram.cdf(p) for p in probes]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))

    def test_fold_stretches_outer_boundaries(self):
        histogram = EquiDepthHistogram.from_values([1.0, 2.0, 3.0, 4.0])
        histogram.fold(-10.0)
        histogram.fold(50.0)
        assert histogram.boundaries[0] == -10.0
        assert histogram.boundaries[-1] == 50.0
        assert histogram.cdf(-10.0) >= 0.0
        assert histogram.cdf(50.0) == 1.0

    def test_non_numeric_input_is_rejected_gracefully(self):
        assert EquiDepthHistogram.from_values([]) is None
        assert EquiDepthHistogram.from_values(["a", "b"]) is None
        histogram = EquiDepthHistogram.from_values([1.0, 2.0])
        histogram.fold("not-a-number")  # ignored, not raised
        assert histogram.total == 2


def _sketch_refs(database):
    for table in database.tables.values():
        for column in table.columns:
            yield ColumnRef(table.name, column.name)


def _small_db(rows: int = 300):
    return generate_synthetic_database(
        num_tables=3,
        rows_per_table=rows,
        topology="chain",
        seed=11,
        skew=0.8,
        dangling_fk_fraction=0.3,
    )


class TestCatalogSketches:
    def test_vectorized_and_scalar_builds_are_byte_equal(self):
        database = _small_db()
        catalog = MetadataCatalog.build(database)
        array_columns = 0
        for table in database.tables.values():
            for position, column in enumerate(table.columns):
                kernel = table.backend.column_kernel(table.name, position)
                if kernel.kind != "array":
                    continue  # text and object columns have no vector path
                array_columns += 1
                ref = ColumnRef(table.name, column.name)
                options = dict(
                    distinct_hint=table.distinct_count(column.name),
                    want_bloom=True,
                )
                vectorized = build_column_sketches(
                    column.data_type, kernel=kernel, **options
                )
                scalar = build_column_sketches(
                    column.data_type,
                    values=table.column_values(column.name),
                    **options,
                )
                assert vectorized.hll.registers == scalar.hll.registers, ref
                assert vectorized.bloom.bits == scalar.bloom.bits, ref
                assert vectorized.histogram == scalar.histogram, ref
                assert catalog.sketches(ref).hll == scalar.hll, ref
        assert array_columns

    def test_join_keys_get_blooms_numerics_get_histograms(self):
        database = _small_db()
        catalog = MetadataCatalog.build(database)
        join_key_refs = set()
        for fk in database.foreign_keys:
            join_key_refs.add(ColumnRef(fk.child_table, fk.child_column))
            join_key_refs.add(ColumnRef(fk.parent_table, fk.parent_column))
        for ref in _sketch_refs(database):
            sketches = catalog.sketches(ref)
            assert (sketches.bloom is not None) == (ref in join_key_refs)
            if ref.column == "measure":
                assert sketches.histogram is not None
            if ref.column in ("label", "attr0", "attr1"):
                assert sketches.histogram is None

    def test_delta_fold_reaches_cold_rebuild_state(self):
        database = _small_db()
        catalog = MetadataCatalog.build(database)
        marks = database.storage_marks()
        assert marks is not None

        rng = random.Random(12)
        for table_name in ("T1", "T2"):
            table = database.table(table_name)
            base = table.num_rows
            table.insert_many(
                (
                    base + i,
                    f"label-{rng.randrange(40)}-new",
                    rng.random() * 100,
                    rng.randrange(600),  # parent_id, some dangling
                    f"attr-{rng.randrange(20)}",
                    f"attr-{rng.randrange(20)}",
                )
                for i in range(50)
            )
        deltas = database.storage_deltas_since(marks)
        assert deltas and set(deltas) == {"T1", "T2"}
        catalog.apply_delta(database, deltas, built_from=("test", 1))

        rebuilt = MetadataCatalog.build(database)
        for ref in _sketch_refs(database):
            folded = catalog.sketches(ref)
            cold = rebuilt.sketches(ref)
            # HLL registers and Bloom bits fold exactly; histogram
            # boundaries are frozen so only the totals must agree.
            assert folded.hll == cold.hll, ref
            assert folded.bloom == cold.bloom, ref
            if cold.histogram is not None:
                assert folded.histogram.total == cold.histogram.total

    def test_bloom_never_loses_keys_across_delta_folds(self):
        database = _small_db()
        catalog = MetadataCatalog.build(database)
        marks = database.storage_marks()
        table = database.table("T2")
        base = table.num_rows
        table.insert_many(
            (base + i, f"fresh-{i}", float(i), 10 ** 6 + i, "x", "y")
            for i in range(25)
        )
        catalog.apply_delta(
            database, database.storage_deltas_since(marks), built_from=("t", 2)
        )
        bloom = catalog.sketches(ColumnRef("T2", "parent_id")).bloom
        assert bloom is not None
        for parent in database.table("T2").column_values("parent_id"):
            assert bloom.might_contain(parent)

    def test_sketches_survive_pickling(self):
        database = _small_db()
        catalog = MetadataCatalog.build(database)
        clone = pickle.loads(pickle.dumps(catalog))
        for ref in _sketch_refs(database):
            original = catalog.sketches(ref)
            restored = clone.sketches(ref)
            assert restored is not None
            assert restored.hll == original.hll
            assert restored.bloom == original.bloom
            assert restored.histogram == original.histogram
