"""The v1 wire format: strict, versioned, loss-free for requests/responses.

Everything that crosses the process-shard boundary goes through
``repro.service.wire``; these tests pin the codec's round-trip fidelity
and its strictness (unknown fields, missing fields and wrong versions are
structured :class:`~repro.errors.WireFormatError`\\ s, never silent drops).
"""

from __future__ import annotations

import json

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
