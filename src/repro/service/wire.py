"""The v1 wire format: versioned, JSON-serializable service messages.

Everything that crosses the service boundary — client → service
submissions and the process-shard IPC frames of
:mod:`repro.service.shards` — is encoded by this module as plain JSON
with an explicit ``api_version`` stamp.  The codec is deliberately
**strict**: a missing required field, an *unknown* field (typos never
pass silently) or a version this build does not speak raises
:class:`~repro.errors.WireFormatError` instead of guessing.

Two design points worth knowing:

* **Requests round-trip losslessly.**  Every constraint form of the
  multiresolution language (:mod:`repro.constraints`) has a typed JSON
  encoding, so ``DiscoveryRequest.from_json(request.to_json())``
  reconstructs an equal request — the codec does not go through the
  textual constraint syntax, whose parse is lossy for typed literals.
* **Responses serialize the serving-boundary view of a result.**  A
  :class:`~repro.discovery.result.DiscoveryResult` holds live
  :class:`~repro.query.ProjectJoinQuery` objects bound to database
  tables; those stay on the side that ran the round.  The wire form
  carries the rendered SQL strings plus the complete
  :class:`~repro.discovery.result.DiscoveryStats`, and decoding yields a
  :class:`RemoteDiscoveryResult` whose ``sql()``/``num_queries``/``stats``
  behave identically.  ``queries`` is empty on a decoded result — query
  *objects* do not cross process boundaries, by design.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping, NoReturn, Optional, Sequence

from repro.constraints.metadata import (
    MetadataConjunction,
    MetadataConstraint,
    MetadataDisjunction,
    MetadataField,
    MetadataPredicate,
)
from repro.constraints.sample import SampleConstraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
    ValueConstraint,
)
from repro.discovery.result import DiscoveryResult, DiscoveryStats
from repro.errors import ReproError, WireFormatError

__all__ = [
    "API_VERSION",
    "RemoteDiscoveryResult",
    "request_to_wire",
    "request_from_wire",
    "response_to_wire",
    "response_from_wire",
    "spec_to_wire",
    "spec_from_wire",
    "dumps",
    "loads",
]

#: Major version of the wire format.  Readers reject anything else: a v1
#: endpoint cannot know whether a field added in v2 is safe to ignore.
API_VERSION = 1

_REQUEST_KIND = "discovery_request"
_RESPONSE_KIND = "discovery_response"

_RESPONSE_STATUSES = ("ok", "timeout", "cancelled", "error")

_STATS_FIELDS = {field.name for field in dataclasses.fields(DiscoveryStats)}


# ----------------------------------------------------------------------
# Strict-mapping helpers
# ----------------------------------------------------------------------
def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise WireFormatError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _require_list(payload: Any, what: str) -> list:
    if not isinstance(payload, list):
        raise WireFormatError(
            f"{what} must be a JSON list, got {type(payload).__name__}"
        )
    return payload


def _scalar(value: Any, what: str) -> Any:
    """A JSON scalar or null: constraint operands are never lists or
    objects."""
    if value is not None and not isinstance(value, (str, int, float)):
        raise WireFormatError(
            f"{what} must be a JSON scalar, got {type(value).__name__}"
        )
    return value


def _number(payload: Mapping[str, Any], key: str, what: str) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise WireFormatError(
            f"{what}'s {key!r} must be a number, got {value!r}"
        ) from exc


def deadline_seconds(value: Any, what: str) -> Optional[float]:
    """A request's ``deadline_s`` as a float (``None`` when absent).

    Only an int or float that is not NaN passes: ``float()`` would read
    a bool as 1 s and a string as its number, and NaN fails every
    ``<= 0`` check yet never expires.  Anything else raises
    :class:`WireFormatError` naming ``what`` and the key.
    """
    if value is None:
        return None
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if not math.isnan(value):
                return float(value)
        except OverflowError:  # an int beyond float range
            pass
    raise WireFormatError(
        f"{what} 'deadline_s' must be a number that is not NaN, "
        f"got {value!r}"
    )


def _check_fields(
    payload: Mapping[str, Any],
    what: str,
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> None:
    missing = [key for key in required if key not in payload]
    if missing:
        raise WireFormatError(f"{what} is missing field(s) {missing}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise WireFormatError(
            f"{what} carries unknown field(s) {unknown}; "
            "v1 messages are strict — remove or fix them"
        )


def _check_version(payload: Mapping[str, Any], what: str) -> None:
    version = payload.get("api_version")
    if version != API_VERSION:
        raise WireFormatError(
            f"{what} declares api_version {version!r}; this build speaks "
            f"version {API_VERSION} only"
        )


# ----------------------------------------------------------------------
# Value constraints
# ----------------------------------------------------------------------
def value_constraint_to_wire(constraint: ValueConstraint) -> dict:
    """Encode one cell constraint as a typed JSON object."""
    if isinstance(constraint, ExactValue):
        return {"type": "exact", "value": constraint.value}
    if isinstance(constraint, OneOf):
        return {"type": "one_of", "values": list(constraint.values)}
    if isinstance(constraint, Range):
        return {
            "type": "range",
            "low": constraint.low,
            "high": constraint.high,
            "low_inclusive": constraint.low_inclusive,
            "high_inclusive": constraint.high_inclusive,
        }
    if isinstance(constraint, Predicate):
        return {"type": "predicate", "op": constraint.op,
                "constant": constraint.constant}
    if isinstance(constraint, Conjunction):
        return {"type": "and",
                "parts": [value_constraint_to_wire(part)
                          for part in constraint.parts]}
    if isinstance(constraint, Disjunction):
        return {"type": "or",
                "parts": [value_constraint_to_wire(part)
                          for part in constraint.parts]}
    if isinstance(constraint, AnyValue):
        return {"type": "any"}
    raise WireFormatError(
        f"value constraint {type(constraint).__name__} has no wire encoding"
    )


def value_constraint_from_wire(payload: Any) -> ValueConstraint:
    """Decode one cell constraint from its typed JSON object."""
    payload = _require_mapping(payload, "a value constraint")
    kind = payload.get("type")
    try:
        if kind == "exact":
            _check_fields(payload, "an 'exact' constraint", ["type", "value"])
            return ExactValue(
                _scalar(payload["value"], "an 'exact' constraint's 'value'")
            )
        if kind == "one_of":
            _check_fields(payload, "a 'one_of' constraint", ["type", "values"])
            values = _require_list(payload["values"],
                                   "a 'one_of' constraint's 'values'")
            return OneOf([_scalar(value, "a 'one_of' value")
                          for value in values])
        if kind == "range":
            _check_fields(
                payload, "a 'range' constraint", ["type"],
                ["low", "high", "low_inclusive", "high_inclusive"],
            )
            return Range(
                low=_scalar(payload.get("low"), "a 'range' bound"),
                high=_scalar(payload.get("high"), "a 'range' bound"),
                low_inclusive=bool(payload.get("low_inclusive", True)),
                high_inclusive=bool(payload.get("high_inclusive", True)),
            )
        if kind == "predicate":
            _check_fields(payload, "a 'predicate' constraint",
                          ["type", "op", "constant"])
            return Predicate(
                _scalar(payload["op"], "a predicate's 'op'"),
                _scalar(payload["constant"], "a predicate's 'constant'"),
            )
        if kind in ("and", "or"):
            _check_fields(payload, f"an {kind!r} constraint", ["type", "parts"])
            parts = [value_constraint_from_wire(part)
                     for part in _require_list(
                         payload["parts"], f"an {kind!r} constraint's 'parts'"
                     )]
            return Conjunction(parts) if kind == "and" else Disjunction(parts)
        if kind == "any":
            _check_fields(payload, "an 'any' constraint", ["type"])
            return AnyValue()
    except WireFormatError:
        raise
    except ReproError as exc:
        raise WireFormatError(
            f"invalid {kind!r} value constraint: {exc}"
        ) from exc
    raise WireFormatError(f"unknown value constraint type {kind!r}")


# ----------------------------------------------------------------------
# Metadata constraints
# ----------------------------------------------------------------------
def metadata_constraint_to_wire(constraint: MetadataConstraint) -> dict:
    """Encode one column-level constraint as a typed JSON object."""
    if isinstance(constraint, MetadataPredicate):
        constant = constraint.constant
        if not isinstance(constant, (str, int, float, bool, type(None))):
            constant = str(getattr(constant, "value", constant))
        return {
            "type": "predicate",
            "field": constraint.field.value,
            "op": constraint.op,
            "constant": constant,
        }
    if isinstance(constraint, MetadataConjunction):
        return {"type": "and",
                "parts": [metadata_constraint_to_wire(part)
                          for part in constraint.parts]}
    if isinstance(constraint, MetadataDisjunction):
        return {"type": "or",
                "parts": [metadata_constraint_to_wire(part)
                          for part in constraint.parts]}
    raise WireFormatError(
        f"metadata constraint {type(constraint).__name__} has no wire "
        "encoding (user-defined constraints carry arbitrary callables "
        "and cannot cross the service boundary)"
    )


def metadata_constraint_from_wire(payload: Any) -> MetadataConstraint:
    """Decode one column-level constraint from its typed JSON object."""
    payload = _require_mapping(payload, "a metadata constraint")
    kind = payload.get("type")
    try:
        if kind == "predicate":
            _check_fields(payload, "a metadata predicate",
                          ["type", "field", "op", "constant"])
            field = MetadataField.from_name(str(payload["field"]))
            return MetadataPredicate(
                field,
                _scalar(payload["op"], "a metadata predicate's 'op'"),
                _scalar(payload["constant"],
                        "a metadata predicate's 'constant'"),
            )
        if kind in ("and", "or"):
            _check_fields(payload, f"a metadata {kind!r} constraint",
                          ["type", "parts"])
            parts = [metadata_constraint_from_wire(part)
                     for part in _require_list(
                         payload["parts"],
                         f"a metadata {kind!r} constraint's 'parts'",
                     )]
            if kind == "and":
                return MetadataConjunction(parts)
            return MetadataDisjunction(parts)
    except WireFormatError:
        raise
    except ReproError as exc:
        raise WireFormatError(
            f"invalid {kind!r} metadata constraint: {exc}"
        ) from exc
    raise WireFormatError(f"unknown metadata constraint type {kind!r}")


# ----------------------------------------------------------------------
# Mapping specifications
# ----------------------------------------------------------------------
def spec_to_wire(spec: MappingSpec) -> dict:
    """Encode a :class:`MappingSpec` as a JSON object."""
    return {
        "columns": spec.num_columns,
        "samples": [
            [
                None if cell is None else value_constraint_to_wire(cell)
                for cell in sample.cells
            ]
            for sample in spec.samples
        ],
        "metadata": {
            str(position): metadata_constraint_to_wire(constraint)
            for position, constraint in sorted(spec.metadata.items())
        },
    }


def spec_from_wire(payload: Any) -> MappingSpec:
    """Decode a :class:`MappingSpec` from its JSON object."""
    payload = _require_mapping(payload, "a mapping spec")
    _check_fields(payload, "a mapping spec", ["columns"],
                  ["samples", "metadata"])
    num_columns = payload["columns"]
    if isinstance(num_columns, bool) or not isinstance(num_columns, int):
        raise WireFormatError(
            f"a mapping spec's 'columns' must be an integer, "
            f"got {num_columns!r}"
        )
    try:
        spec = MappingSpec(num_columns)
        samples = payload.get("samples")
        for row in _require_list([] if samples is None else samples,
                                 "a mapping spec's 'samples'"):
            cells = [
                None if cell is None else value_constraint_from_wire(cell)
                for cell in _require_list(row, "a sample row")
            ]
            spec.add_sample(SampleConstraint(cells))
        metadata = payload.get("metadata")
        metadata = _require_mapping({} if metadata is None else metadata,
                                    "a mapping spec's 'metadata'")
        for position, constraint in metadata.items():
            try:
                index = int(position)
            except (TypeError, ValueError) as exc:
                raise WireFormatError(
                    f"metadata position {position!r} is not an integer"
                ) from exc
            spec.set_metadata(index, metadata_constraint_from_wire(constraint))
    except WireFormatError:
        raise
    except ReproError as exc:
        raise WireFormatError(f"invalid mapping spec: {exc}") from exc
    return spec


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def request_to_wire(request) -> dict:
    """Encode a :class:`~repro.api.DiscoveryRequest` as a JSON object."""
    payload: dict[str, Any] = {
        "api_version": API_VERSION,
        "kind": _REQUEST_KIND,
        "database": request.database,
        "spec": spec_to_wire(request.spec),
    }
    if request.scheduler is not None:
        payload["scheduler"] = request.scheduler
    if request.deadline_s is not None:
        payload["deadline_s"] = request.deadline_s
    if request.request_id is not None:
        payload["request_id"] = request.request_id
    return payload


def request_from_wire(payload: Any):
    """Decode a :class:`~repro.api.DiscoveryRequest` from a JSON object."""
    from repro.service.service import DiscoveryRequest

    payload = _require_mapping(payload, "a discovery request")
    _check_version(payload, "a discovery request")
    _check_fields(
        payload, "a discovery request",
        ["api_version", "kind", "database", "spec"],
        ["scheduler", "deadline_s", "request_id"],
    )
    if payload["kind"] != _REQUEST_KIND:
        raise WireFormatError(
            f"expected kind {_REQUEST_KIND!r}, got {payload['kind']!r}"
        )
    database = payload["database"]
    if not isinstance(database, str) or not database:
        raise WireFormatError("a discovery request's 'database' must be a "
                              "non-empty string")
    for key in ("scheduler", "request_id"):
        value = payload.get(key)
        if value is not None and not isinstance(value, str):
            raise WireFormatError(
                f"a discovery request's {key!r} must be a string, "
                f"got {value!r}"
            )
    return DiscoveryRequest(
        database=database,
        spec=spec_from_wire(payload["spec"]),
        scheduler=payload.get("scheduler"),
        deadline_s=deadline_seconds(
            payload.get("deadline_s"), "a discovery request's"
        ),
        request_id=payload.get("request_id"),
    )


# ----------------------------------------------------------------------
# Results and responses
# ----------------------------------------------------------------------
class RemoteDiscoveryResult(DiscoveryResult):
    """A discovery result decoded from the wire.

    Carries the rendered SQL strings and the full stats of the round that
    ran on the other side of the boundary; the live
    :class:`~repro.query.ProjectJoinQuery` objects stay there, so
    ``queries`` is empty while ``sql()``, ``num_queries``, ``is_empty``
    and ``stats`` behave exactly like the original result's.
    """

    def __init__(self, sql_strings: Sequence[str], stats: DiscoveryStats):
        super().__init__(stats=stats)
        self._sql = [str(sql) for sql in sql_strings]

    @property
    def num_queries(self) -> int:
        return len(self._sql)

    @property
    def is_empty(self) -> bool:
        return not self._sql

    def sql(self) -> list[str]:
        return list(self._sql)

    def describe(self) -> str:
        lines = [
            f"{self.num_queries} satisfying schema mapping "
            f"quer{'y' if self.num_queries == 1 else 'ies'} "
            f"({self.stats.validations} filter validations, "
            f"{self.stats.elapsed_seconds:.2f}s"
            f"{', TIMED OUT' if self.timed_out else ''})",
        ]
        for index, sql in enumerate(self._sql, start=1):
            lines.append(f"  [{index}] {sql}")
        return "\n".join(lines)


def stats_to_wire(stats: DiscoveryStats) -> dict:
    """Encode every :class:`DiscoveryStats` field (lossless round trip)."""
    return {field.name: getattr(stats, field.name)
            for field in dataclasses.fields(DiscoveryStats)}


def stats_from_wire(payload: Any) -> DiscoveryStats:
    """Decode a :class:`DiscoveryStats`; unknown counter names are an error."""
    payload = _require_mapping(payload, "discovery stats")
    unknown = sorted(set(payload) - _STATS_FIELDS)
    if unknown:
        raise WireFormatError(f"discovery stats carry unknown field(s) {unknown}")
    return DiscoveryStats(**payload)


def result_to_wire(result: Optional[DiscoveryResult]) -> Optional[dict]:
    """Encode a result as its serving-boundary view (SQL + stats)."""
    if result is None:
        return None
    return {"sql": result.sql(), "stats": stats_to_wire(result.stats)}


def result_from_wire(payload: Any) -> Optional[DiscoveryResult]:
    """Decode a result into a :class:`RemoteDiscoveryResult`."""
    if payload is None:
        return None
    payload = _require_mapping(payload, "a discovery result")
    _check_fields(payload, "a discovery result", ["sql", "stats"])
    sql = _require_list(payload["sql"], "a discovery result's 'sql'")
    return RemoteDiscoveryResult(sql, stats_from_wire(payload["stats"]))


def response_to_wire(response) -> dict:
    """Encode a :class:`~repro.api.DiscoveryResponse` as a JSON object."""
    return {
        "api_version": API_VERSION,
        "kind": _RESPONSE_KIND,
        "request_id": response.request_id,
        "database": response.database,
        "status": response.status,
        "result": result_to_wire(response.result),
        "error": response.error,
        "queued_seconds": response.queued_seconds,
        "execution_seconds": response.execution_seconds,
    }


def response_from_wire(payload: Any):
    """Decode a :class:`~repro.api.DiscoveryResponse` from a JSON object."""
    from repro.service.service import DiscoveryResponse

    payload = _require_mapping(payload, "a discovery response")
    _check_version(payload, "a discovery response")
    _check_fields(
        payload, "a discovery response",
        ["api_version", "kind", "request_id", "database", "status"],
        ["result", "error", "queued_seconds", "execution_seconds"],
    )
    if payload["kind"] != _RESPONSE_KIND:
        raise WireFormatError(
            f"expected kind {_RESPONSE_KIND!r}, got {payload['kind']!r}"
        )
    status = payload["status"]
    if status not in _RESPONSE_STATUSES:
        raise WireFormatError(
            f"unknown response status {status!r}; "
            f"expected one of {_RESPONSE_STATUSES}"
        )
    return DiscoveryResponse(
        request_id=str(payload["request_id"]),
        database=str(payload["database"]),
        status=status,
        result=result_from_wire(payload.get("result")),
        error=payload.get("error"),
        queued_seconds=_number(
            payload, "queued_seconds", "a discovery response") or 0.0,
        execution_seconds=_number(
            payload, "execution_seconds", "a discovery response") or 0.0,
    )


# ----------------------------------------------------------------------
# JSON text helpers
# ----------------------------------------------------------------------
def _unencodable(value: Any) -> NoReturn:
    raise TypeError(
        f"{value!r} ({type(value).__name__}) has no JSON encoding"
    )


def dumps(payload: Mapping[str, Any]) -> str:
    """Serialize a wire object to compact JSON text.

    A value JSON cannot encode (a date, a set, ...) raises
    :class:`WireFormatError` naming the value, as :func:`loads` does for
    malformed text.
    """
    try:
        return json.dumps(
            payload, separators=(",", ":"), sort_keys=True,
            default=_unencodable,
        )
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"cannot encode wire JSON: {exc}") from exc


def loads(text: str) -> Any:
    """Parse JSON text, folding syntax errors into :class:`WireFormatError`."""
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed wire JSON: {exc}") from exc
