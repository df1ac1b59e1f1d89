"""The v1 public API: one import point for everything supported.

``repro.api`` is the stable, versioned surface of the reproduction —
import from here (or from the top-level :mod:`repro` package, which
re-exports the same names) rather than from implementation modules like
``repro.service.service``.  Those deep paths stay importable, but they
carry no compatibility promise and may move without notice; only this
module does.

The surface, by lifecycle:

* **Serving** — :class:`DiscoveryService` (one worker thread or
  process shards), :class:`DiscoveryRequest` /
  :class:`DiscoveryResponse` (the wire-serializable round-trip:
  ``to_json()``/``from_json()`` with an ``api_version`` stamp, strict
  decoding via :class:`WireFormatError`), :class:`DiscoveryTicket`
  (cancellable future) and :class:`ServiceMetrics`.
* **Preprocessing** — :class:`ArtifactStore`: build-once, optionally
  disk-persisted bundles that the thread worker and shard processes
  warm-start from.
* **Embedding** — :class:`Prism`, the in-process engine, for callers
  that do not need a serving front door; :class:`MappingSpec` and the
  constraint parsers to express what to discover.
* **Interactive** — :class:`PrismSession`, the workbench's
  Configuration → Description → Result workflow.

``API_VERSION`` is the wire-format major version this build speaks; it
only changes when a message shape changes incompatibly.
"""

from repro.constraints.parser import (
    parse_metadata_constraint,
    parse_value_constraint,
)
from repro.constraints.spec import MappingSpec
from repro.discovery.engine import Prism
from repro.discovery.result import DiscoveryResult, DiscoveryStats
from repro.errors import (
    ReproError,
    ServiceError,
    ServiceOverloaded,
    WireFormatError,
)
from repro.service.artifacts import ArtifactStore
from repro.service.service import (
    DiscoveryRequest,
    DiscoveryResponse,
    DiscoveryService,
    DiscoveryTicket,
    ServiceMetrics,
)
from repro.service.wire import API_VERSION
from repro.service.workload import demo_requests, request_from_dict
from repro.workbench.session import PrismSession

__all__ = [
    "API_VERSION",
    "ArtifactStore",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "DiscoveryResult",
    "DiscoveryService",
    "DiscoveryStats",
    "DiscoveryTicket",
    "MappingSpec",
    "Prism",
    "PrismSession",
    "ReproError",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloaded",
    "WireFormatError",
    "demo_requests",
    "parse_metadata_constraint",
    "parse_value_constraint",
    "request_from_dict",
]
