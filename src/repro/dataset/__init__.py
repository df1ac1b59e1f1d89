"""Relational substrate: tables, databases, indexes, catalogs, schema graph.

This subpackage implements the database engine the paper assumes as its
environment — an in-memory relational store with typed columns, foreign
keys, an inverted index over cell values, a metadata catalog collected
during preprocessing, and a schema graph supporting join-tree enumeration.
"""

from repro.dataset.catalog import ColumnStats, MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex, normalize_term
from repro.dataset.loader import load_database, save_database
from repro.dataset.schema import Column, ColumnRef, ForeignKey
from repro.dataset.schema_graph import SchemaGraph
from repro.dataset.table import Table
from repro.dataset.types import DataType, coerce_value, detect_type, infer_column_type

__all__ = [
    "Column",
    "ColumnRef",
    "ColumnStats",
    "Database",
    "DataType",
    "ForeignKey",
    "InvertedIndex",
    "MetadataCatalog",
    "SchemaGraph",
    "Table",
    "coerce_value",
    "detect_type",
    "infer_column_type",
    "load_database",
    "normalize_term",
    "save_database",
]
