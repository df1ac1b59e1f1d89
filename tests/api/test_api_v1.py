"""The v1 public API surface: one import point for every public name.

``repro.api`` is the stable façade; the ``repro.service`` and
``repro.workbench`` packages export nothing themselves, and the
canonical keyword names (``deadline_s``, ``workers``,
``default_deadline_s``) are the only spellings.
"""

from __future__ import annotations

import warnings

import repro
import repro.api


class TestV1Surface:
    def test_every_advertised_name_is_importable(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), f"repro.api.{name} missing"

    def test_core_names_are_advertised(self):
        assert {
            "API_VERSION",
            "ArtifactStore",
            "DiscoveryRequest",
            "DiscoveryResponse",
            "DiscoveryService",
            "DiscoveryTicket",
            "MappingSpec",
            "Prism",
            "PrismSession",
            "WireFormatError",
            "demo_requests",
            "request_from_dict",
        } <= set(repro.api.__all__)
        assert repro.api.API_VERSION == 1

    def test_facade_exposes_the_implementation_classes(self):
        from repro.service.service import DiscoveryService
        from repro.workbench.session import PrismSession

        assert repro.api.DiscoveryService is DiscoveryService
        assert repro.api.PrismSession is PrismSession

    def test_top_level_package_reexports_the_service_types(self):
        for name in ("DiscoveryRequest", "DiscoveryResponse",
                     "DiscoveryService", "DiscoveryTicket",
                     "ServiceMetrics", "ArtifactStore", "PrismSession"):
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_importing_the_facade_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _ = repro.api.DiscoveryService
            _ = repro.DiscoveryRequest


class TestCanonicalNames:
    def _spec(self):
        spec = repro.api.MappingSpec(1)
        spec.add_sample_cells([repro.api.parse_value_constraint("x")])
        return spec

    def test_canonical_request_kwargs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            request = repro.api.DiscoveryRequest(
                database="nba", spec=self._spec(), deadline_s=7.0
            )
        assert request.deadline_s == 7.0
