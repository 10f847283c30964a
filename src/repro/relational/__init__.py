"""Relational substrate: schemas, relations, theta predicates, queries, statistics."""

from repro.relational.predicates import (
    AttrRef,
    JoinCondition,
    JoinPredicate,
    ThetaOp,
)
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation, Row
from repro.relational.sampling import SampledJoinEstimator
from repro.relational.schema import Field, Schema
from repro.relational.sql import parse_join_query
from repro.relational.statistics import (
    ColumnStats,
    RelationStats,
    SelectivityEstimator,
    StatisticsCatalog,
    compute_column_stats,
    compute_relation_stats,
)

__all__ = [
    "AttrRef",
    "ColumnStats",
    "Field",
    "JoinCondition",
    "JoinPredicate",
    "JoinQuery",
    "Relation",
    "RelationStats",
    "Row",
    "SampledJoinEstimator",
    "Schema",
    "SelectivityEstimator",
    "StatisticsCatalog",
    "ThetaOp",
    "compute_column_stats",
    "compute_relation_stats",
    "parse_join_query",
]
