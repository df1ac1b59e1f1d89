"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch a single base class.  More specific subclasses exist for
the major subsystems (dataset engine, constraint language, discovery
pipeline, serving layer) so that tests and applications can make
fine-grained decisions.

Each exception documents *when* it is raised and *how to recover*; the
same information is tabulated in ``docs/service.md``'s troubleshooting
section.  Two outcomes are deliberately **not** opaque errors at the
service boundary: a discovery round that exceeds its budget surfaces as a
structured ``status="timeout"`` response (or CLI exit code 3 with
``--fail-on-timeout``), and a full request queue surfaces as
:class:`ServiceOverloaded` backpressure that callers should retry.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library.

    When raised: never directly — always through a subclass below.

    How to recover: catch this class at integration boundaries (the CLI
    and :class:`~repro.api.DiscoveryService` already do) to translate
    any library failure into one error path; catch the specific
    subclasses when different failures need different handling.
    """


class SchemaError(ReproError):
    """A table, column or foreign key definition is invalid or unknown.

    When raised: creating a table with duplicate/empty column names,
    referencing a table or column that does not exist (including through
    :class:`~repro.dataset.schema.ColumnRef` lookups in the catalog), or
    registering a foreign key whose endpoints are missing.

    How to recover: this is a programming error in the schema wiring, not
    a data problem — fix the definition or the reference; nothing in the
    library's state was modified by the failed call.
    """


class DataError(ReproError):
    """A row or value does not conform to its declared column type.

    When raised: :meth:`~repro.dataset.table.Table.insert` with a row of
    the wrong width, a NULL in a non-nullable column, or a cell whose
    detected type differs from the declared one.  Bulk loads via
    ``insert_many`` prefix the message with the 0-based row index.

    How to recover: fix the offending record, or pass ``coerce=True`` to
    let the table convert compatible values.  The failing row was not
    stored; previously inserted rows of the batch were (inserts are not
    transactional).
    """


class QueryError(ReproError):
    """A Project-Join query is malformed or references unknown objects.

    When raised: constructing or executing a
    :class:`~repro.query.ProjectJoinQuery` whose projections, join edges
    or predicates reference tables/columns that are not part of the
    database, or whose join graph is not a connected tree.

    How to recover: queries produced by discovery are always well-formed;
    this fires for hand-built queries — correct the query structure.
    """


class ConstraintError(ReproError):
    """A multiresolution constraint is malformed.

    When raised: building a value/metadata constraint from inconsistent
    parts (e.g. an empty disjunction, a range with no bounds).

    How to recover: construct the constraint with valid arguments; see
    :mod:`repro.constraints.values` for the accepted shapes.
    """


class ConstraintParseError(ConstraintError):
    """The textual constraint syntax could not be parsed.

    When raised: :func:`~repro.constraints.parse_value_constraint` or
    :func:`~repro.constraints.parse_metadata_constraint` on input that
    does not match the constraint grammar (unbalanced quotes, unknown
    metadata attribute, bad operator).

    How to recover: fix the constraint text; the message points at the
    offending token.  In the workbench, re-enter the cell.
    """


class SpecError(ReproError):
    """A mapping specification is inconsistent (wrong arity, bad indices).

    When raised: adding a sample row whose width differs from the spec's
    column count, attaching metadata to an out-of-range column, or
    calling :meth:`~repro.constraints.MappingSpec.validate` on a spec
    with no constraints at all.

    How to recover: adjust the spec before starting the search — specs
    are plain builders and can be mutated until they validate.
    """


class DiscoveryError(ReproError):
    """The discovery engine was configured or invoked incorrectly.

    When raised: a non-positive time limit, an unknown scheduler name, or
    requesting the ``bayesian`` scheduler on an engine constructed with
    ``train_bayesian=False`` and no injected models.

    How to recover: fix the engine construction; this never fires
    mid-search for data-dependent reasons.
    """


class DiscoveryTimeout(DiscoveryError):
    """Raised when query discovery exceeds its time budget.

    Mirrors the paper's behaviour of reporting a failure when the 60 second
    interactive time limit is exceeded.  The partially discovered results are
    attached so callers may still inspect them.

    When raised: only if ``raise_on_timeout=True`` was passed to
    :meth:`~repro.discovery.engine.Prism.discover`; by default a timeout
    is a structured partial result (``result.timed_out``), and the
    service layer converts this exception back into a
    ``status="timeout"`` response.  The CLI's ``--fail-on-timeout`` flag
    maps a timed-out round to **exit code 3** after printing the partial
    queries.

    How to recover: inspect ``partial_result`` (the queries confirmed
    before the budget ran out), then retry with a larger ``time_limit``,
    tighter :class:`~repro.discovery.GenerationLimits`, or a more
    selective spec.
    """

    def __init__(self, message: str, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class TrainingError(ReproError):
    """A Bayesian model could not be trained from the supplied database.

    When raised: training over a database with no tables, asking a fitted
    model for an unknown column, or folding an append delta into a
    hand-built model, which lacks its sufficient statistics.

    How to recover: retrain via
    :func:`~repro.bayesian.training.train_models`; for the delta case the
    :class:`~repro.api.ArtifactStore` already does this automatically
    by falling back to a full rebuild.
    """


class WorkloadError(ReproError):
    """A synthetic workload case could not be generated.

    When raised: :mod:`repro.workloads` cannot synthesize a ground-truth
    case under the requested shape (e.g. more joined tables than the
    schema graph connects).

    How to recover: relax the case shape (fewer columns/tables) or use a
    database with a richer foreign-key graph.
    """


class SessionError(ReproError):
    """The workbench session was driven through an invalid state transition.

    When raised: calling :class:`~repro.api.PrismSession` steps out
    of order — e.g. setting sample cells before ``configure()``, or
    ``explain()`` before a query was selected.

    How to recover: follow the session order (configure → describe →
    search → inspect); the message names the step that is missing.
    """


class ArtifactError(ReproError):
    """A preprocessing-artifact bundle could not be built, loaded or saved.

    When raised: the source database was mutated *while* its bundle was
    being built (the store detects the torn state and refuses to cache
    it).

    How to recover: for build-time mutation, retry once writes have
    quiesced — the store's per-database build lock makes this safe.
    Delta failures inside :meth:`~repro.api.ArtifactStore.refresh`
    are handled internally via the counted rebuild fallback
    (``stats.rebuild_fallbacks``); corrupt persisted files never raise at
    all — they are treated as cache misses and rebuilt (counted in
    ``stats.disk_errors``), and files written under another
    ``ARTIFACT_FORMAT`` are never looked up.
    """


class ServiceError(ReproError):
    """The discovery service was configured or driven incorrectly.

    When raised: invalid construction parameters (non-positive workers,
    queue size or time limit, or more than one worker in thread mode),
    a request dict with a missing or wrongly typed key, submitting to a
    shut-down service, requesting an unknown database, or a
    :meth:`~repro.api.DiscoveryTicket.result` wait that exceeds its
    ``timeout`` argument.

    How to recover: configuration errors are programming errors — fix the
    caller.  For unknown databases, consult
    :meth:`~repro.api.DiscoveryService.available_databases`.  A
    ticket-wait timeout does not cancel the request; call ``result()``
    again or ``cancel()`` the ticket.
    """


class WireFormatError(ServiceError):
    """A v1 wire message (JSON request/response) could not be decoded.

    When raised: :meth:`~repro.api.DiscoveryRequest.from_json` /
    :meth:`~repro.api.DiscoveryResponse.from_json` (and the
    :mod:`repro.service.wire` codec behind them) on a payload that is not
    a JSON object, misses a required field, carries an *unknown* field
    (v1 is strict: typos never pass silently) or a wrongly typed one, or
    declares an ``api_version`` this build does not speak.  The
    process-shard IPC layer raises it for malformed frames too.

    How to recover: the message names the offending field or version.
    Regenerate the payload with ``to_json()`` from a matching library
    version instead of hand-editing it; for version skew, upgrade the
    older side (v1 readers reject newer majors rather than guessing).
    """


class ServiceOverloaded(ServiceError):
    """The service's bounded request queue is full (backpressure signal).

    Callers should retry later or shed load; the request was never queued.

    When raised: :meth:`~repro.api.DiscoveryService.submit` with
    ``block=False`` (the default) while ``queue_size`` requests are
    already waiting, or with ``block=True`` when the wait exceeds its
    ``timeout``.  Every rejection is counted in the service metrics
    (``rejected``).

    How to recover: this is load shedding working as designed — back off
    and retry, submit with ``block=True`` to wait for queue space, or
    provision more process shards / a larger queue.
    """
