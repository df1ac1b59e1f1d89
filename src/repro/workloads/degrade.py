"""Constraint degradation: deriving looser specs from ground-truth cases.

The paper studies what happens "as user constraints became loose
(containing constraints with disjunctions, value ranges, etc.)" and notes a
special regime "when there were too many missing values" (§2.4).  Starting
from a case's exact sample rows, this module derives mapping specs at the
looseness levels the evaluation sweeps over:

========== ============================================================
level      meaning
========== ============================================================
exact      complete sample rows with exact values (high resolution)
partial    one cell per row left blank
disjunct   every text cell becomes a disjunction with extra distractors
range      every numeric cell becomes a value range around the truth
mixed      disjunctions for text cells, ranges for numeric cells
sparse     only one cell per row kept, metadata for the dropped numerics
metadata   a single anchor cell; every other column metadata-only
========== ============================================================
"""

from __future__ import annotations

import enum
import random
from typing import Any, Optional

from repro.constraints.metadata import (
    MetadataConjunction,
    MetadataConstraint,
    MetadataField,
    MetadataPredicate,
)
from repro.constraints.sample import SampleConstraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf, Range, ValueConstraint
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.types import DataType
from repro.errors import WorkloadError
from repro.workloads.generator import WorkloadCase

__all__ = ["ResolutionLevel", "spec_for_level", "DEFAULT_SWEEP_LEVELS"]


class ResolutionLevel(enum.Enum):
    """Looseness levels used by the evaluation sweeps."""

    EXACT = "exact"
    PARTIAL = "partial"
    DISJUNCTION = "disjunct"
    RANGE = "range"
    MIXED = "mixed"
    SPARSE = "sparse"
    METADATA = "metadata"

    @classmethod
    def from_name(cls, name: str) -> "ResolutionLevel":
        """Resolve a level from its textual name."""
        normalized = name.strip().lower()
        for level in cls:
            if level.value == normalized or level.name.lower() == normalized:
                return level
        raise WorkloadError(f"unknown resolution level: {name!r}")


DEFAULT_SWEEP_LEVELS = (
    ResolutionLevel.EXACT,
    ResolutionLevel.PARTIAL,
    ResolutionLevel.DISJUNCTION,
    ResolutionLevel.RANGE,
    ResolutionLevel.MIXED,
    ResolutionLevel.SPARSE,
)


def _distractors(
    database: Database, case: WorkloadCase, position: int, value: Any,
    count: int, rng: random.Random,
) -> list[Any]:
    """Draw distractor values from the same source column as ``value``."""
    ref = case.ground_truth.projections[position]
    # distinct_values returns a set whose iteration order depends on
    # PYTHONHASHSEED for strings; sort first so the seeded shuffle draws
    # the same distractors in every run.
    pool = sorted(
        (
            candidate
            for candidate in database.table(ref.table).distinct_values(
                ref.column
            )
            if candidate != value
        ),
        key=repr,
    )
    if not pool:
        return []
    rng.shuffle(pool)
    return pool[: count]


def _range_around(value: Any, slack: float, rng: random.Random) -> Optional[Range]:
    """A numeric range of relative width ``slack`` containing ``value``;
    ``None`` for a value that is not a number within float range."""
    try:
        numeric = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    spread = max(abs(numeric) * slack, 1.0)
    low = numeric - rng.uniform(0.2, 1.0) * spread
    high = numeric + rng.uniform(0.2, 1.0) * spread
    return Range(round(low, 3), round(high, 3))


def _metadata_for_column(
    catalog: MetadataCatalog, case: WorkloadCase, position: int
) -> MetadataConstraint:
    """A truthful metadata constraint describing the ground-truth column."""
    ref = case.ground_truth.projections[position]
    stats = catalog.stats(ref)
    type_predicate = MetadataPredicate(
        MetadataField.DATA_TYPE,
        "==",
        DataType.DECIMAL if stats.data_type is DataType.INT else stats.data_type,
    )
    if stats.is_numeric and stats.min_value is not None:
        try:
            minimum = float(stats.min_value)
        except OverflowError:
            # ``MinValue >= inf`` would exclude the column itself.
            return type_predicate
        bound = MetadataPredicate(MetadataField.MIN_VALUE, ">=", minimum)
        return MetadataConjunction([type_predicate, bound])
    if stats.data_type is DataType.TEXT and stats.max_text_length is not None:
        bound = MetadataPredicate(
            MetadataField.MAX_LENGTH, "<=", int(stats.max_text_length)
        )
        return MetadataConjunction([type_predicate, bound])
    return type_predicate


def spec_for_level(
    case: WorkloadCase,
    level: ResolutionLevel,
    database: Database,
    catalog: Optional[MetadataCatalog] = None,
    seed: int = 0,
    num_distractors: int = 2,
    range_slack: float = 0.25,
) -> MappingSpec:
    """Derive a mapping spec at ``level`` from a ground-truth case.

    Args:
        case: the workload case (provides the exact sample rows).
        level: the looseness level to derive.
        database: the source database (distractor values are drawn from it).
        catalog: metadata catalog; required for the SPARSE and METADATA
            levels (built on demand when omitted).
        seed: RNG seed; combined with the case id for determinism.
        num_distractors: extra values per disjunction.
        range_slack: relative width of derived numeric ranges.
    """
    if not case.sample_rows:
        raise WorkloadError("the case carries no sample rows to degrade")
    rng = random.Random(f"{seed}-{case.case_id}-{level.value}")
    if catalog is None and level in (ResolutionLevel.SPARSE, ResolutionLevel.METADATA):
        catalog = MetadataCatalog.build(database)

    spec = MappingSpec(case.num_columns)
    numeric_positions = {
        position
        for position, ref in enumerate(case.ground_truth.projections)
        if database.column(ref).data_type.is_numeric
    }

    for row in case.sample_rows:
        cells: list[Optional[ValueConstraint]] = []
        drop_position = rng.randrange(case.num_columns)
        keep_position = rng.randrange(case.num_columns)
        for position, value in enumerate(row):
            exact = ExactValue(value)
            if level is ResolutionLevel.EXACT:
                cells.append(exact)
            elif level is ResolutionLevel.PARTIAL:
                cells.append(None if position == drop_position else exact)
            elif level is ResolutionLevel.DISJUNCTION:
                others = _distractors(database, case, position, value,
                                      num_distractors, rng)
                cells.append(OneOf([value] + others) if others else exact)
            elif level is ResolutionLevel.RANGE:
                derived = (
                    _range_around(value, range_slack, rng)
                    if position in numeric_positions
                    else None
                )
                cells.append(derived if derived is not None else exact)
            elif level is ResolutionLevel.MIXED:
                if position in numeric_positions:
                    derived = _range_around(value, range_slack, rng)
                    cells.append(derived if derived is not None else exact)
                else:
                    others = _distractors(database, case, position, value,
                                          num_distractors, rng)
                    cells.append(OneOf([value] + others) if others else exact)
            elif level in (ResolutionLevel.SPARSE, ResolutionLevel.METADATA):
                cells.append(exact if position == keep_position else None)
            else:  # pragma: no cover - enum is exhaustive
                raise WorkloadError(f"unhandled level {level!r}")
        spec.add_sample(SampleConstraint(cells))

        if level in (ResolutionLevel.SPARSE, ResolutionLevel.METADATA):
            for position in range(case.num_columns):
                if position == keep_position:
                    continue
                if level is ResolutionLevel.SPARSE and position not in numeric_positions:
                    continue
                spec.set_metadata(
                    position, _metadata_for_column(catalog, case, position)
                )
    return spec
