"""The serving layer: shared preprocessing artifacts + a concurrent front door.

This package separates Prism's two lifecycles:

* **per-database preprocessing** — expensive, immutable once built, shared:
  :class:`~repro.api.ArtifactStore` builds, caches and optionally
  disk-persists :class:`~repro.service.artifacts.ArtifactBundle` objects
  keyed by :class:`~repro.service.artifacts.ArtifactKey`
  ``(database, schema_version, data_version)``;
* **per-request discovery** — cheap, isolated, concurrent:
  :class:`~repro.api.DiscoveryService` runs rounds on one worker thread
  or across identical process shards (:mod:`repro.service.shards`),
  each on a fresh :class:`~repro.discovery.engine.Prism` engine layered
  over a shared bundle, with a bounded queue, deadlines, cancellation and
  metrics.  Requests and responses are wire-serializable v1 messages
  (:mod:`repro.service.wire`).

The public classes are imported from :mod:`repro.api` (or the top-level
:mod:`repro` package); this package itself exports nothing.  The
implementation submodules — ``repro.service.service``,
``repro.service.artifacts``, ``repro.service.wire``,
``repro.service.shards``, ``repro.service.workload`` — stay importable.
"""
