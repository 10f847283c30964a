"""Tests for JoinQuery validation and accessors."""

import pytest

from repro.errors import QueryError
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def rel(name: str, rows: int = 4) -> Relation:
    schema = Schema.of("id:int", "v:int")
    return Relation(name, schema, [(i, i) for i in range(rows)])


def simple_query() -> JoinQuery:
    return JoinQuery(
        "q",
        {"a": rel("A"), "b": rel("B"), "c": rel("C")},
        [
            JoinCondition.parse(1, "a.v < b.v"),
            JoinCondition.parse(2, "b.v = c.v"),
        ],
    )


class TestValidation:
    def test_valid_query_builds(self):
        query = simple_query()
        assert query.aliases == ("a", "b", "c")
        assert query.condition_ids == (1, 2)

    def test_duplicate_condition_ids_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                "q",
                {"a": rel("A"), "b": rel("B")},
                [
                    JoinCondition.parse(1, "a.v < b.v"),
                    JoinCondition.parse(1, "a.v > b.v"),
                ],
            )

    def test_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                "q",
                {"a": rel("A"), "b": rel("B")},
                [JoinCondition.parse(1, "a.v < z.v")],
            )

    def test_unknown_attribute_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                "q",
                {"a": rel("A"), "b": rel("B")},
                [JoinCondition.parse(1, "a.nope < b.v")],
            )

    def test_disconnected_graph_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                "q",
                {"a": rel("A"), "b": rel("B"), "c": rel("C"), "d": rel("D")},
                [
                    JoinCondition.parse(1, "a.v < b.v"),
                    JoinCondition.parse(2, "c.v < d.v"),
                ],
            )

    def test_needs_two_relations(self):
        with pytest.raises(QueryError):
            JoinQuery("q", {"a": rel("A")}, [])

    def test_projection_validated(self):
        with pytest.raises(QueryError):
            JoinQuery(
                "q",
                {"a": rel("A"), "b": rel("B")},
                [JoinCondition.parse(1, "a.v < b.v")],
                projection=[("a", "nope")],
            )


class TestAccessors:
    def test_condition_lookup(self):
        query = simple_query()
        assert query.condition(2).aliases == ("b", "c")
        with pytest.raises(QueryError):
            query.condition(99)

    def test_conditions_among(self):
        query = simple_query()
        assert len(query.conditions_among(["a", "b", "c"])) == 2
        assert len(query.conditions_among(["a", "b"])) == 1
        assert query.conditions_among(["a"]) == []

    def test_subquery(self):
        query = simple_query()
        sub = query.subquery([2])
        assert set(sub.relations) == {"b", "c"}
        assert sub.condition_ids == (2,)

    def test_total_input_bytes_counts_distinct_relations(self):
        shared = rel("S")
        query = JoinQuery(
            "q",
            {"a": shared, "b": shared.renamed("S")},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        # Self-join: the underlying relation is stored once.
        assert query.total_input_bytes() == shared.size_bytes
