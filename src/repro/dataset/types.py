"""Column data types and value coercion.

The paper's metadata constraints cover the types ``decimal``, ``int``,
``text``, ``date`` and ``time`` (§2.1).  This module defines the
:class:`DataType` enumeration, type detection for raw Python values, value
coercion used by the loader, and a total ordering helper used by the
metadata catalog when computing per-column min/max statistics.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from typing import Any, Iterable, Optional

from repro.errors import DataError

__all__ = [
    "DataType",
    "detect_type",
    "coerce_value",
    "values_comparable",
    "to_float",
    "parse_date",
    "parse_time",
    "NUMERIC_TYPES",
]


class DataType(enum.Enum):
    """Data types supported by the engine and the constraint language."""

    INT = "int"
    DECIMAL = "decimal"
    TEXT = "text"
    DATE = "date"
    TIME = "time"
    BOOLEAN = "boolean"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in numeric comparisons."""
        return self in (DataType.INT, DataType.DECIMAL)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a type from its (case-insensitive) textual name.

        Accepts a few common aliases (``float``/``numeric``/``real`` for
        decimal, ``integer`` for int, ``string``/``varchar``/``char`` for
        text, ``bool`` for boolean).
        """
        normalized = name.strip().lower()
        aliases = {
            "integer": cls.INT,
            "int": cls.INT,
            "bigint": cls.INT,
            "smallint": cls.INT,
            "decimal": cls.DECIMAL,
            "float": cls.DECIMAL,
            "double": cls.DECIMAL,
            "numeric": cls.DECIMAL,
            "real": cls.DECIMAL,
            "text": cls.TEXT,
            "string": cls.TEXT,
            "str": cls.TEXT,
            "varchar": cls.TEXT,
            "char": cls.TEXT,
            "date": cls.DATE,
            "time": cls.TIME,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
        }
        if normalized not in aliases:
            raise DataError(f"unknown data type name: {name!r}")
        return aliases[normalized]


NUMERIC_TYPES = (DataType.INT, DataType.DECIMAL)

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%d.%m.%Y", "%m/%d/%Y")
_TIME_FORMATS = ("%H:%M:%S", "%H:%M")


def parse_date(text: str) -> _dt.date:
    """Parse a date from one of the supported textual formats."""
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text.strip(), fmt).date()
        except ValueError:
            continue
    raise DataError(f"cannot parse date: {text!r}")


def parse_time(text: str) -> _dt.time:
    """Parse a time from one of the supported textual formats."""
    for fmt in _TIME_FORMATS:
        try:
            return _dt.datetime.strptime(text.strip(), fmt).time()
        except ValueError:
            continue
    raise DataError(f"cannot parse time: {text!r}")


def detect_type(value: Any) -> Optional[DataType]:
    """Infer the :class:`DataType` of a single Python value.

    Returns ``None`` for ``None`` (SQL NULL).  Booleans are detected before
    integers because ``bool`` is a subclass of ``int`` in Python.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.DECIMAL
    if isinstance(value, _dt.datetime):
        return DataType.DATE
    if isinstance(value, _dt.date):
        return DataType.DATE
    if isinstance(value, _dt.time):
        return DataType.TIME
    if isinstance(value, str):
        return DataType.TEXT
    raise DataError(f"unsupported value type: {type(value).__name__}")


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Infer the best column type for a collection of values.

    ``INT`` is widened to ``DECIMAL`` when both appear; any other mixture
    falls back to ``TEXT``.  An all-NULL column defaults to ``TEXT``.
    """
    seen: set[DataType] = set()
    for value in values:
        detected = detect_type(value)
        if detected is not None:
            seen.add(detected)
    if not seen:
        return DataType.TEXT
    if seen == {DataType.INT}:
        return DataType.INT
    if seen <= {DataType.INT, DataType.DECIMAL}:
        return DataType.DECIMAL
    if len(seen) == 1:
        return next(iter(seen))
    return DataType.TEXT


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Coerce ``value`` to the Python representation of ``data_type``.

    ``None`` passes through untouched (NULL).  Raises :class:`DataError`
    when the value cannot be represented in the requested type.
    """
    if value is None:
        return None
    try:
        if data_type is DataType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            return int(str(value).strip())
        if data_type is DataType.DECIMAL:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            return float(str(value).strip())
        if data_type is DataType.TEXT:
            return value if isinstance(value, str) else str(value)
        if data_type is DataType.DATE:
            if isinstance(value, _dt.datetime):
                return value.date()
            if isinstance(value, _dt.date):
                return value
            return parse_date(str(value))
        if data_type is DataType.TIME:
            if isinstance(value, _dt.time):
                return value
            return parse_time(str(value))
        if data_type is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            text = str(value).strip().lower()
            if text in ("true", "t", "yes", "1"):
                return True
            if text in ("false", "f", "no", "0"):
                return False
            raise DataError(f"cannot interpret {value!r} as boolean")
    except DataError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataError(
            f"cannot coerce {value!r} to {data_type.value}"
        ) from exc
    raise DataError(f"unknown data type: {data_type!r}")


def values_comparable(left: Any, right: Any) -> bool:
    """Return ``True`` when ``left`` and ``right`` can be ordered together.

    Numeric values are mutually comparable; otherwise the values must share
    the same detected type.  ``None`` is never comparable.
    """
    if left is None or right is None:
        return False
    left_type = detect_type(left)
    right_type = detect_type(right)
    if left_type in NUMERIC_TYPES and right_type in NUMERIC_TYPES:
        return True
    return left_type == right_type


def to_float(value: Any) -> float:
    """``float(value)``, with an int beyond float range mapped to ``±inf``
    (it lies beyond every finite float) instead of raising."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
