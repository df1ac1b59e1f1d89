"""Request builders for the service layer.

Two producers of :class:`~repro.api.DiscoveryRequest` objects:

* :func:`request_from_dict` — deserialize one request from the plain-dict
  shape used by ``prism serve-batch --requests FILE.json``;
* :func:`demo_requests` — a built-in mixed workload over the bundled demo
  databases (the §3 Lake Tahoe walk-through on Mondial plus equivalent
  rounds on IMDB and NBA), used by the CLI's default batch, the examples
  and the benchmarks.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.constraints.parser import parse_metadata_constraint, parse_value_constraint
from repro.constraints.sample import SampleConstraint
from repro.constraints.spec import MappingSpec
from repro.errors import ServiceError
from repro.service import wire
from repro.service.service import DiscoveryRequest

__all__ = ["request_from_dict", "demo_requests", "DEMO_REQUEST_TEMPLATES"]

# One representative multiresolution round per bundled database:
# (database, num_columns, sample cell texts, {column: metadata text}).
DEMO_REQUEST_TEMPLATES: tuple[tuple[str, int, tuple[str, ...], dict[int, str]], ...] = (
    (
        "mondial",
        3,
        ("California || Nevada", "Lake Tahoe", ""),
        {2: "DataType=='decimal' AND MinValue>=0"},
    ),
    (
        "imdb",
        2,
        ("The Dark Knight", "Christian Bale"),
        {},
    ),
    (
        "nba",
        2,
        ("Lakers", "LeBron James"),
        {},
    ),
)


def _spec_from_texts(
    num_columns: int,
    sample_rows: Iterable[Sequence[str]],
    metadata: Mapping[int, str],
) -> MappingSpec:
    spec = MappingSpec(num_columns)
    for cells in sample_rows:
        if len(cells) > num_columns:
            raise ServiceError(
                f"sample row has {len(cells)} cells but the target schema "
                f"has {num_columns} columns"
            )
        constraints = [
            parse_value_constraint(text) if text and text.strip() else None
            for text in cells
        ]
        constraints.extend([None] * (num_columns - len(constraints)))
        if any(cell is not None for cell in constraints):
            spec.add_sample(SampleConstraint(constraints))
    for column, text in metadata.items():
        constraint = parse_metadata_constraint(text)
        if constraint is not None:
            spec.set_metadata(int(column), constraint)
    return spec


def request_from_dict(entry: Mapping[str, Any]) -> DiscoveryRequest:
    """Build a request from its JSON-friendly dict form.

    Expected keys: ``database`` (str), ``columns`` (int), ``samples``
    (list of rows, each a list of cell texts; empty text means an
    unconstrained cell), ``metadata`` (mapping of column index → text),
    and optionally ``scheduler``, ``deadline_s`` and ``request_id``.

    Raises:
        ServiceError: the entry is not an object, or a key is missing,
            malformed or of the wrong type; the message names the key.
    """
    if not isinstance(entry, Mapping):
        raise ServiceError(
            f"request entry must be a JSON object, got {type(entry).__name__}"
        )
    try:
        database = entry["database"]
        columns = entry["columns"]
    except KeyError as exc:
        raise ServiceError(f"request entry is missing key {exc}") from exc
    if "time_limit" in entry:
        raise ServiceError(
            "request entry key 'time_limit' is no longer read; "
            "rename it to 'deadline_s'"
        )
    if not isinstance(database, str):
        raise ServiceError(
            f"request entry key 'database' must be a string, got {database!r}"
        )
    for key in ("scheduler", "request_id"):
        value = entry.get(key)
        if value is not None and not isinstance(value, str):
            raise ServiceError(
                f"request entry key {key!r} must be a string, got {value!r}"
            )
    if isinstance(columns, bool) or not isinstance(columns, int):
        raise ServiceError(
            f"request entry key 'columns' must be an integer, got {columns!r}"
        )
    return DiscoveryRequest(
        database=database,
        spec=_spec_from_texts(
            columns,
            _sample_rows(entry.get("samples")),
            _metadata_texts(entry.get("metadata")),
        ),
        scheduler=entry.get("scheduler"),
        deadline_s=wire.deadline_seconds(
            entry.get("deadline_s"), "request entry key"
        ),
        request_id=entry.get("request_id"),
    )


def _sample_rows(samples: Any) -> list:
    """The ``samples`` entry: rows of cell texts (``None`` = absent)."""
    if samples is None:
        return []
    if isinstance(samples, list) and all(
        isinstance(row, list)
        and all(cell is None or isinstance(cell, str) for cell in row)
        for row in samples
    ):
        return samples
    raise ServiceError(
        "request entry key 'samples' must be a list of rows, each a list "
        f"of cell texts; got {samples!r}"
    )


def _metadata_texts(metadata: Any) -> dict[int, str]:
    """The ``metadata`` entry: column index → constraint text."""
    if metadata is None:
        return {}
    if isinstance(metadata, Mapping) and all(
        isinstance(text, str) for text in metadata.values()
    ):
        try:
            return {int(key): text for key, text in metadata.items()}
        except ValueError:
            pass
    raise ServiceError(
        "request entry key 'metadata' must map column indexes to "
        f"constraint texts; got {metadata!r}"
    )


def demo_requests(
    databases: Optional[Sequence[str]] = None,
    rounds: int = 1,
    scheduler: Optional[str] = None,
    deadline_s: Optional[float] = None,
) -> list[DiscoveryRequest]:
    """The built-in mixed workload: one round per template per repetition.

    Args:
        databases: restrict to these database names (all templates when
            omitted).
        rounds: how many times to repeat the template set.
        scheduler: scheduling policy stamped on every request.
        deadline_s: per-round budget stamped on every request.
    """
    if rounds < 1:
        raise ServiceError("rounds must be at least 1")
    wanted = set(databases) if databases is not None else None
    templates = [
        template
        for template in DEMO_REQUEST_TEMPLATES
        if wanted is None or template[0] in wanted
    ]
    if not templates:
        raise ServiceError(
            f"no demo workload for databases {sorted(wanted or set())}; "
            f"available: {sorted(t[0] for t in DEMO_REQUEST_TEMPLATES)}"
        )
    requests = []
    for round_index in range(rounds):
        for database, num_columns, cells, metadata in templates:
            spec = _spec_from_texts(num_columns, [cells], metadata)
            requests.append(
                DiscoveryRequest(
                    database=database,
                    spec=spec,
                    scheduler=scheduler,
                    deadline_s=deadline_s,
                    request_id=f"demo-{database}-{round_index + 1}",
                )
            )
    return requests
