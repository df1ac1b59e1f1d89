"""Unit tests for value constraints (the row-level language)."""

from __future__ import annotations

import pytest

from repro.constraints.resolution import Resolution
from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
)
from repro.errors import ConstraintError


class TestExactValue:
    def test_exact_string_match_is_case_insensitive(self):
        constraint = ExactValue("Lake Tahoe")
        assert constraint.matches("Lake Tahoe")
        assert constraint.matches("lake tahoe")
        assert not constraint.matches("Lake Michigan")

    def test_keyword_matches_whole_word_inside_text(self):
        assert ExactValue("Tahoe").matches("Lake Tahoe")
        assert not ExactValue("Tah").matches("Lake Tahoe")

    def test_cell_containing_keyword_phrase(self):
        assert ExactValue("Lake Tahoe").matches("Greater Lake Tahoe Area")

    def test_numeric_match_int_vs_float(self):
        assert ExactValue(497).matches(497.0)
        assert ExactValue(497.0).matches(497)
        assert not ExactValue(497).matches(498)

    def test_null_never_matches(self):
        assert not ExactValue("x").matches(None)

    def test_null_exact_value_rejected(self):
        with pytest.raises(ConstraintError):
            ExactValue(None)

    def test_resolution_is_high(self):
        assert ExactValue("x").resolution is Resolution.HIGH

    def test_seed_values(self):
        assert ExactValue("California").seed_values() == ["California"]

    def test_equality_and_hash(self):
        assert ExactValue("a") == ExactValue("a")
        assert hash(ExactValue("a")) == hash(ExactValue("a"))
        assert ExactValue("a") != ExactValue("b")
        assert ExactValue("a") != OneOf(["a"])


class TestOneOf:
    def test_matches_any_member(self):
        constraint = OneOf(["California", "Nevada"])
        assert constraint.matches("Nevada")
        assert constraint.matches("california")
        assert not constraint.matches("Oregon")

    def test_resolution_medium_for_true_disjunction(self):
        assert OneOf(["a", "b"]).resolution is Resolution.MEDIUM
        assert OneOf(["a"]).resolution is Resolution.HIGH

    def test_requires_at_least_one_value(self):
        with pytest.raises(ConstraintError):
            OneOf([])
        with pytest.raises(ConstraintError):
            OneOf([None])

    def test_seed_values_and_describe(self):
        constraint = OneOf(["California", "Nevada"])
        assert constraint.seed_values() == ["California", "Nevada"]
        assert constraint.describe() == "California || Nevada"


class TestRange:
    def test_inclusive_bounds(self):
        constraint = Range(400, 600)
        assert constraint.matches(400)
        assert constraint.matches(600)
        assert constraint.matches(497.0)
        assert not constraint.matches(399.99)

    def test_exclusive_bounds(self):
        constraint = Range(0, 10, low_inclusive=False, high_inclusive=False)
        assert not constraint.matches(0)
        assert not constraint.matches(10)
        assert constraint.matches(5)

    def test_open_ended_ranges(self):
        assert Range(low=100).matches(1_000_000)
        assert not Range(low=100).matches(99)
        assert Range(high=10).matches(-5)

    def test_requires_some_bound(self):
        with pytest.raises(ConstraintError):
            Range()

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConstraintError):
            Range(10, 5)

    def test_non_numeric_cell_does_not_match(self):
        assert not Range(0, 10).matches("five")
        assert not Range(0, 10).matches(None)

    def test_resolution_medium(self):
        assert Range(0, 1).resolution is Resolution.MEDIUM


class TestPredicate:
    def test_comparison_operators(self):
        assert Predicate(">=", 0).matches(0)
        assert Predicate(">", 0).matches(1)
        assert not Predicate(">", 0).matches(0)
        assert Predicate("<=", 10).matches(10)
        assert Predicate("<", 10).matches(9.5)
        assert Predicate("!=", 5).matches(6)
        assert Predicate("==", 5).matches(5)

    def test_equals_alias(self):
        assert Predicate("=", "x").op == "=="

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConstraintError):
            Predicate("~", 5)

    def test_type_mismatch_is_false_not_error(self):
        assert not Predicate(">=", 0).matches("abc")

    def test_resolution(self):
        assert Predicate("==", 5).resolution is Resolution.HIGH
        assert Predicate(">=", 5).resolution is Resolution.MEDIUM

    def test_seed_values_only_for_equality(self):
        assert Predicate("==", 5).seed_values() == [5]
        assert Predicate(">=", 5).seed_values() == []


class TestCompositeConstraints:
    def test_conjunction_requires_all(self):
        constraint = Conjunction([Predicate(">=", 0), Predicate("<", 100)])
        assert constraint.matches(50)
        assert not constraint.matches(150)
        assert not constraint.matches(-1)

    def test_disjunction_requires_any(self):
        constraint = Disjunction([ExactValue("California"), Range(0, 10)])
        assert constraint.matches("California")
        assert constraint.matches(5)
        assert not constraint.matches("Oregon")

    def test_composites_require_two_parts(self):
        with pytest.raises(ConstraintError):
            Conjunction([ExactValue("x")])
        with pytest.raises(ConstraintError):
            Disjunction([ExactValue("x")])

    def test_conjunction_resolution_is_strictest_part(self):
        constraint = Conjunction([ExactValue("x"), Predicate(">=", 0)])
        assert constraint.resolution is Resolution.HIGH

    def test_disjunction_resolution_is_loosest_part(self):
        constraint = Disjunction([ExactValue("x"), Range(0, 1)])
        assert constraint.resolution is Resolution.MEDIUM

    def test_seed_values_are_collected_from_parts(self):
        constraint = Disjunction([ExactValue("a"), ExactValue("b")])
        assert constraint.seed_values() == ["a", "b"]

    def test_describe_round_trips_shape(self):
        constraint = Conjunction([Predicate(">=", 0), Predicate("<=", 10)])
        assert constraint.describe() == ">= 0 && <= 10"


class TestAnyValue:
    def test_matches_everything_but_null(self):
        constraint = AnyValue()
        assert constraint.matches("x")
        assert constraint.matches(0)
        assert not constraint.matches(None)

    def test_resolution_low(self):
        assert AnyValue().resolution is Resolution.LOW

    def test_describe(self):
        assert AnyValue().describe() == "*"


class TestConstraintIdentityTypes:
    """Constraint identity must not collide across Python's cross-type
    equalities (True == 1, 1 == 1.0): matching semantics differ, and the
    keys feed hashing and the executor's existence-memo cache."""

    def test_bool_and_int_exact_values_are_distinct(self):
        assert ExactValue(1) != ExactValue(True)
        assert hash(ExactValue(1)) != hash(ExactValue(True))
        # Sanity: their matching semantics genuinely differ.
        assert ExactValue(1).matches(1)
        assert not ExactValue(True).matches(1)

    def test_int_and_float_exact_values_are_distinct(self):
        assert ExactValue(1) != ExactValue(1.0)
        # They differ on text cells: "1" vs "1.0" keyword matching.
        assert ExactValue(1).matches("1")
        assert not ExactValue(1.0).matches("1")

    def test_one_of_and_predicate_keys_are_typed(self):
        assert OneOf([1, 2]) != OneOf([True, 2])
        assert Predicate("==", 1) != Predicate("==", True)

    def test_equal_constraints_still_compare_equal(self):
        assert ExactValue(1) == ExactValue(1)
        assert OneOf(["a", "b"]) == OneOf(["a", "b"])
        assert hash(Range(1, 5)) == hash(Range(1, 5))


class TestWordPatternCache:
    def test_distinct_targets_never_outgrow_the_cache(self):
        from repro.constraints import values

        size = values._WORD_PATTERN_CACHE_SIZE
        values._word_pattern.cache_clear()
        targets = [f"sample{i}" for i in range(size + 1)]
        for target in targets:
            constraint = ExactValue(target)
            assert constraint.matches(f"a {target} text")
            assert not constraint.matches(f"{target}x")
        info = values._word_pattern.cache_info()
        assert info.maxsize == size
        assert info.currsize <= size
        # The first target was evicted; matching it again is unchanged.
        assert ExactValue(targets[0]).matches(f"({targets[0]})")
        assert not ExactValue(targets[0]).matches(f"{targets[0]}1")
