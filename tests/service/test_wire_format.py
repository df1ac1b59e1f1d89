"""The v1 wire format: strict, versioned, loss-free for requests/responses.

Everything that crosses the process-shard boundary goes through
``repro.service.wire``; these tests pin the codec's round-trip fidelity
and its strictness (unknown fields, missing fields, wrong versions and
wrongly typed values are structured
:class:`~repro.errors.WireFormatError`\\ s, never silent drops), and fuzz
the decoders on both sides of the shard pipe with seeded mutations of
real frames.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.constraints.parser import parse_metadata_constraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
)
from repro.discovery.result import DiscoveryStats
from repro.errors import ServiceError, WireFormatError
from repro.service import wire
from repro.service.service import DiscoveryRequest, DiscoveryResponse
from repro.service.workload import demo_requests


def _rich_spec() -> MappingSpec:
    spec = MappingSpec(3)
    spec.add_sample_cells(
        [
            Conjunction([OneOf(["California", "Nevada"]), AnyValue()]),
            Disjunction([ExactValue("Lake Tahoe"), Predicate("!=", "x")]),
            Range(low=0, high=500.5, low_inclusive=False),
        ]
    )
    spec.add_sample_cells([ExactValue("plain"), None, None])
    spec.set_metadata(
        2, parse_metadata_constraint("DataType=='decimal' AND MinValue>=0")
    )
    spec.set_metadata(0, parse_metadata_constraint("ColumnName=='Name'"))
    return spec


def _request(**overrides) -> DiscoveryRequest:
    fields = dict(
        database="mondial",
        spec=_rich_spec(),
        scheduler="bayesian",
        deadline_s=12.5,
        request_id="req-wire-1",
    )
    fields.update(overrides)
    return DiscoveryRequest(**fields)


class TestRequestRoundTrip:
    def test_round_trip_preserves_every_field(self):
        request = _request()
        clone = DiscoveryRequest.from_json(request.to_json())
        assert clone.database == "mondial"
        assert clone.scheduler == "bayesian"
        assert clone.deadline_s == 12.5
        assert clone.request_id == "req-wire-1"
        assert clone.spec.num_columns == 3
        assert len(clone.spec.samples) == 2
        # Constraint trees survive verbatim, including nesting and bounds.
        assert clone.spec.samples[0].cells == request.spec.samples[0].cells
        assert clone.spec.samples[1].cells == request.spec.samples[1].cells
        assert clone.spec.metadata_for(0) == request.spec.metadata_for(0)
        assert clone.spec.metadata_for(2) == request.spec.metadata_for(2)

    def test_optional_fields_may_be_absent(self):
        request = _request(scheduler=None, deadline_s=None, request_id=None)
        clone = DiscoveryRequest.from_json(request.to_json())
        assert clone.scheduler is None
        assert clone.deadline_s is None
        assert clone.request_id is None

    def test_wire_payload_is_versioned_and_typed(self):
        payload = json.loads(_request().to_json())
        assert payload["api_version"] == wire.API_VERSION == 1
        assert payload["kind"] == "discovery_request"

    def test_every_value_constraint_shape_round_trips(self):
        shapes = [
            ExactValue("x"),
            OneOf(["a", "b", 3]),
            Range(low=1, high=5, low_inclusive=False, high_inclusive=True),
            Range(low=None, high=9),
            Predicate(">=", 3),
            Conjunction([ExactValue("x"), Range(low=0)]),
            Disjunction([ExactValue("a"), AnyValue()]),
            AnyValue(),
        ]
        for constraint in shapes:
            payload = wire.value_constraint_to_wire(constraint)
            assert wire.value_constraint_from_wire(payload) == constraint


class TestResponseRoundTrip:
    def _stats(self) -> DiscoveryStats:
        return DiscoveryStats(
            scheduler_name="bayesian",
            num_candidates=7,
            validations=5,
            elapsed_seconds=0.25,
            timed_out=False,
        )

    def test_ok_response_round_trips_with_remote_result(self):
        result = wire.RemoteDiscoveryResult(
            sql_strings=["SELECT 1", "SELECT 2"], stats=self._stats()
        )
        response = DiscoveryResponse(
            request_id="req-1",
            database="nba",
            status="ok",
            result=result,
            error=None,
            queued_seconds=0.01,
            execution_seconds=0.2,
        )
        clone = DiscoveryResponse.from_json(response.to_json())
        assert clone.ok and clone.status == "ok"
        assert clone.request_id == "req-1"
        assert clone.database == "nba"
        assert isinstance(clone.result, wire.RemoteDiscoveryResult)
        assert clone.result.sql() == ["SELECT 1", "SELECT 2"]
        assert clone.result.num_queries == 2
        assert not clone.result.is_empty
        assert clone.result.stats.num_candidates == 7
        assert "2 satisfying" in clone.result.describe()
        assert "SELECT 1" in clone.result.describe()
        assert clone.queued_seconds == 0.01
        assert clone.execution_seconds == 0.2

    def test_error_response_round_trips(self):
        response = DiscoveryResponse(
            request_id="req-2",
            database="nba",
            status="error",
            result=None,
            error="unknown scheduling policy 'nope'",
            queued_seconds=0.0,
            execution_seconds=0.0,
        )
        clone = DiscoveryResponse.from_json(response.to_json())
        assert clone.status == "error"
        assert clone.result is None
        assert "nope" in clone.error

    def test_remote_result_queries_are_not_materialized(self):
        result = wire.RemoteDiscoveryResult(
            sql_strings=[], stats=self._stats()
        )
        assert result.is_empty
        assert result.num_queries == 0
        assert result.queries == []


class TestStrictness:
    def test_unknown_field_is_rejected(self):
        payload = json.loads(_request().to_json())
        payload["surprise"] = 1
        with pytest.raises(WireFormatError, match="unknown field"):
            DiscoveryRequest.from_json(json.dumps(payload))

    def test_missing_field_is_rejected(self):
        payload = json.loads(_request().to_json())
        del payload["database"]
        with pytest.raises(WireFormatError, match="missing field"):
            DiscoveryRequest.from_json(json.dumps(payload))

    def test_wrong_api_version_is_rejected(self):
        payload = json.loads(_request().to_json())
        payload["api_version"] = 2
        with pytest.raises(WireFormatError, match="api_version"):
            DiscoveryRequest.from_json(json.dumps(payload))

    def test_wrong_kind_is_rejected(self):
        payload = json.loads(_request().to_json())
        payload["kind"] = "discovery_response"
        with pytest.raises(WireFormatError):
            DiscoveryRequest.from_json(json.dumps(payload))

    def test_malformed_json_is_a_wire_format_error(self):
        with pytest.raises(WireFormatError):
            DiscoveryRequest.from_json("{not json")

    def test_unencodable_value_is_a_wire_format_error(self):
        spec = MappingSpec(1)
        spec.add_sample_cells([ExactValue({1, 2})])
        with pytest.raises(WireFormatError, match=r"\{1, 2\} \(set\)"):
            _request(spec=spec).to_json()

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(WireFormatError):
            DiscoveryRequest.from_json("[1, 2, 3]")

    def test_unknown_constraint_type_is_rejected(self):
        with pytest.raises(WireFormatError, match="constraint type"):
            wire.value_constraint_from_wire({"type": "wavelet"})

    def test_bad_response_status_is_rejected(self):
        with pytest.raises(WireFormatError, match="status"):
            wire.response_from_wire(
                {
                    "api_version": 1,
                    "kind": "discovery_response",
                    "request_id": "r",
                    "database": "nba",
                    "status": "maybe",
                    "result": None,
                    "error": None,
                    "queued_seconds": 0.0,
                    "execution_seconds": 0.0,
                }
            )

    def test_wire_format_error_is_a_service_error(self):
        # Callers that already catch ServiceError keep working.
        assert issubclass(WireFormatError, ServiceError)


# ----------------------------------------------------------------------
# Wrongly typed values and fuzzed frames
# ----------------------------------------------------------------------
def _ok_response() -> DiscoveryResponse:
    return DiscoveryResponse(
        request_id="req-fuzz",
        database="nba",
        status="ok",
        result=wire.RemoteDiscoveryResult(
            sql_strings=["SELECT 1"],
            stats=DiscoveryStats(num_candidates=3, validations=2),
        ),
        error=None,
        queued_seconds=0.01,
        execution_seconds=0.2,
    )


def _set_path(payload, path, value) -> None:
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = value


class TestWronglyTypedValues:
    @pytest.mark.parametrize("path,value", [
        pytest.param(("spec", "samples"), [None], id="null-sample-row"),
        pytest.param(("spec", "samples"), 5, id="samples-number"),
        pytest.param(("spec", "samples", 0), "Lake Tahoe",
                     id="sample-row-string"),
        pytest.param(("spec", "metadata"), [], id="metadata-list"),
        pytest.param(("spec", "metadata", "2", "parts"), 1.5,
                     id="metadata-parts-number"),
        pytest.param(("spec", "samples", 0, 0, "values"), None,
                     id="one-of-values-null"),
        pytest.param(("spec", "samples", 0, 1, "value"), {"a": 1},
                     id="exact-value-object"),
        pytest.param(("spec", "metadata", "2", "parts", 0, "op"), ["=="],
                     id="metadata-op-list"),
        pytest.param(("spec", "columns"), float("inf"),
                     id="columns-infinite"),
        pytest.param(("spec", "columns"), 2.7, id="columns-float"),
        pytest.param(("spec", "columns"), True, id="columns-bool"),
        pytest.param(("deadline_s",), [1], id="deadline-list"),
        pytest.param(("deadline_s",), True, id="deadline-bool"),
        pytest.param(("deadline_s",), "2.5", id="deadline-string"),
        pytest.param(("deadline_s",), float("nan"), id="deadline-nan"),
        pytest.param(("database",), 7, id="database-number"),
        pytest.param(("scheduler",), 7, id="scheduler-number"),
        pytest.param(("request_id",), 7, id="request-id-number"),
    ])
    def test_request_field_is_rejected(self, path, value):
        # The Mondial demo request: an OneOf, an exact value and a
        # conjunctive metadata constraint on column 2.
        payload = json.loads(demo_requests(databases=["mondial"])[0].to_json())
        _set_path(payload, path, value)
        with pytest.raises(WireFormatError):
            DiscoveryRequest.from_json(json.dumps(payload))

    @pytest.mark.parametrize("path,value", [
        pytest.param(("spec", "columns"), 2.7, id="columns-float"),
        pytest.param(("scheduler",), 7, id="scheduler-number"),
        pytest.param(("request_id",), 7, id="request-id-number"),
        pytest.param(("deadline_s",), True, id="deadline-bool"),
        pytest.param(("deadline_s",), float("nan"), id="deadline-nan"),
    ])
    def test_wrongly_typed_request_field_is_named(self, path, value):
        payload = json.loads(demo_requests(databases=["mondial"])[0].to_json())
        _set_path(payload, path, value)
        with pytest.raises(WireFormatError, match=repr(path[-1])):
            DiscoveryRequest.from_json(json.dumps(payload))

    @pytest.mark.parametrize("path,value", [
        pytest.param(("queued_seconds",), {"a": 1}, id="queued-object"),
        pytest.param(("execution_seconds",), "soon", id="execution-text"),
        pytest.param(("result", "sql"), "SELECT 1", id="sql-string"),
    ])
    def test_response_field_is_rejected(self, path, value):
        payload = json.loads(_ok_response().to_json())
        _set_path(payload, path, value)
        with pytest.raises(WireFormatError):
            DiscoveryResponse.from_json(json.dumps(payload))


# Values swapped into fuzzed frames: every JSON type, plus shapes that
# look like parts of a real frame.
_SWAP_VALUES = (
    None, True, 0, -1, 1.5, 10**30, "", "x", [], {}, [None], [[None]],
    {"type": "exact"}, {"a": 1},
)


def _paths(node, path=()):
    """Every path to a value nested in a decoded JSON frame."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _get_path(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _mutate(text: str, rng: random.Random) -> str:
    """One truncation, character flip or structural value swap."""
    choice = rng.randrange(3)
    if choice == 0:
        return text[: rng.randrange(len(text))]
    if choice == 1:
        position = rng.randrange(len(text))
        return text[:position] + chr(rng.randrange(32, 127)) + text[position + 1:]
    payload = json.loads(text)
    paths = list(_paths(payload))
    target = rng.choice(paths)
    if rng.random() < 0.3:
        # Move another part of the same frame here.
        value = json.loads(json.dumps(_get_path(payload, rng.choice(paths))))
    else:
        value = rng.choice(_SWAP_VALUES)
    _set_path(payload, target, value)
    return json.dumps(payload)


def test_fuzzed_frames_raise_only_wire_format_errors():
    frames = [
        (DiscoveryRequest.from_json, request.to_json())
        for request in demo_requests()
    ]
    frames.append((DiscoveryResponse.from_json, _ok_response().to_json()))
    rng = random.Random(2024)
    outcomes = {"decoded": 0, "rejected": 0}
    for __ in range(4000):
        decode, text = rng.choice(frames)
        mutated = _mutate(text, rng)
        try:
            decode(mutated)
        except WireFormatError:
            outcomes["rejected"] += 1
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} decoding {mutated!r}")
        else:
            outcomes["decoded"] += 1
    # Both kinds of outcome occur: the mutations reach the decoders'
    # accepting paths as well as their rejecting ones.
    assert outcomes["decoded"] and outcomes["rejected"]
