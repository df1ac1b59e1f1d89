"""repro — a reproduction of Prism, the multiresolution schema mapping system.

Prism (Jin, Baik, Cafarella, Jagadish, Lou — CIDR 2019) discovers
Project-Join schema mapping queries from user constraints of varying
resolution: exact sample rows, disjunctions of possible values, value
ranges, and column-level metadata such as data types or min/max values.

Typical usage::

    from repro import Prism, MappingSpec, load_mondial
    from repro.constraints import parse_value_constraint, parse_metadata_constraint

    database = load_mondial()
    prism = Prism(database)

    spec = MappingSpec(num_columns=3)
    spec.add_sample_cells([
        parse_value_constraint("California || Nevada"),
        parse_value_constraint("Lake Tahoe"),
        None,
    ])
    spec.set_metadata(2, parse_metadata_constraint("DataType=='decimal' AND MinValue>=0"))

    result = prism.discover(spec)
    for sql in result.sql():
        print(sql)

Package map (the "Benchmarks" section of ``docs/performance.md`` indexes
the experiments):

* :mod:`repro.storage` — the NumPy column store (dictionary encoding,
  NULL masks, column array snapshots).
* :mod:`repro.dataset` — in-memory relational engine, inverted index,
  metadata catalog, schema graph.
* :mod:`repro.datasets` — synthetic Mondial / IMDB / NBA databases.
* :mod:`repro.query` — Project-Join queries, SQL rendering, semijoin executor.
* :mod:`repro.constraints` — the multiresolution constraint language.
* :mod:`repro.discovery` — related columns, candidates, filters, scheduling.
* :mod:`repro.bayesian` — selectivity models driving the Prism scheduler.
* :mod:`repro.baselines` — MWeaver-style and Filter baselines.
* :mod:`repro.explain` — query explanation graphs.
* :mod:`repro.service` — shared preprocessing-artifact store + concurrent
  discovery service (thread- or process-sharded executor, bounded queue,
  deadlines, metrics, versioned v1 wire format).
* :mod:`repro.api` — the stable v1 public surface; the single import
  point with a compatibility promise.
* :mod:`repro.workbench` — the demo workflow (session + CLI).
* :mod:`repro.workloads` / :mod:`repro.evaluation` — §2.4 evaluation harness.
"""

from repro.baselines import FilterBaseline, MWeaverBaseline
from repro.constraints import (
    MappingSpec,
    MetadataPredicate,
    Resolution,
    SampleConstraint,
    parse_metadata_constraint,
    parse_value_constraint,
)
from repro.dataset import (
    Column,
    ColumnRef,
    Database,
    DataType,
    ForeignKey,
    InvertedIndex,
    MetadataCatalog,
    SchemaGraph,
    Table,
)
from repro.datasets import (
    available_databases,
    generate_synthetic_database,
    load_database_by_name,
    load_imdb,
    load_mondial,
    load_nba,
)
from repro.discovery import (
    DiscoveryResult,
    DiscoveryStats,
    GenerationLimits,
    Prism,
)
from repro.explain import QueryGraph, to_ascii, to_dot
from repro.query import Executor, ProjectJoinQuery, to_sql
from repro.service.artifacts import ArtifactBundle, ArtifactKey, ArtifactStore
from repro.service.service import (
    DiscoveryRequest,
    DiscoveryResponse,
    DiscoveryService,
    DiscoveryTicket,
    ServiceMetrics,
)
from repro.storage import ColumnStore, TableDelta, TableMark
from repro.workbench.session import PrismSession

__version__ = "0.1.0"

__all__ = [
    "ArtifactBundle",
    "ArtifactKey",
    "ArtifactStore",
    "Column",
    "ColumnRef",
    "ColumnStore",
    "Database",
    "DataType",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "DiscoveryResult",
    "DiscoveryService",
    "DiscoveryStats",
    "DiscoveryTicket",
    "ServiceMetrics",
    "Executor",
    "FilterBaseline",
    "ForeignKey",
    "GenerationLimits",
    "InvertedIndex",
    "MappingSpec",
    "MetadataCatalog",
    "MetadataPredicate",
    "MWeaverBaseline",
    "Prism",
    "PrismSession",
    "ProjectJoinQuery",
    "QueryGraph",
    "Resolution",
    "SampleConstraint",
    "SchemaGraph",
    "Table",
    "TableDelta",
    "TableMark",
    "available_databases",
    "generate_synthetic_database",
    "load_database_by_name",
    "load_imdb",
    "load_mondial",
    "load_nba",
    "parse_metadata_constraint",
    "parse_value_constraint",
    "to_ascii",
    "to_dot",
    "to_sql",
    "__version__",
]
