"""Tests for composite join records and merge semantics."""

import pytest

from repro.errors import ExecutionError
from repro.joins.records import (
    aliases_of,
    composite_width,
    composites_to_relation,
    entry_for,
    global_id_of,
    merge_composites,
    relation_to_composite_file,
    rows_by_alias,
    singleton,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def relation():
    return Relation("R", Schema.of("id:int", "v:int"), [(i, i * 2) for i in range(5)])


class TestBasics:
    def test_singleton(self):
        composite = singleton("a", 3, (3, 6))
        assert aliases_of(composite) == ("a",)
        assert global_id_of(composite, "a") == 3

    def test_entry_for_missing(self):
        with pytest.raises(ExecutionError):
            entry_for(singleton("a", 0, (0,)), "b")

    def test_rows_by_alias(self):
        composite = merge_composites(
            singleton("a", 0, (1,)), singleton("b", 1, (2,))
        )
        assert rows_by_alias(composite) == {"a": (1,), "b": (2,)}


class TestMerge:
    def test_disjoint_merge_sorted_by_alias(self):
        merged = merge_composites(singleton("b", 1, (1,)), singleton("a", 0, (0,)))
        assert aliases_of(merged) == ("a", "b")

    def test_shared_alias_same_id_merges(self):
        left = merge_composites(singleton("a", 2, (2,)), singleton("b", 0, (0,)))
        right = merge_composites(singleton("a", 2, (2,)), singleton("c", 1, (1,)))
        merged = merge_composites(left, right)
        assert merged is not None
        assert aliases_of(merged) == ("a", "b", "c")

    def test_shared_alias_conflicting_id_returns_none(self):
        left = singleton("a", 1, (1,))
        right = singleton("a", 2, (2,))
        assert merge_composites(left, right) is None

    def test_merge_with_empty(self):
        composite = singleton("a", 0, (0,))
        assert merge_composites((), composite) == composite


class TestFiles:
    def test_relation_to_composite_file(self, relation):
        file = relation_to_composite_file(relation, "x")
        assert file.num_records == 5
        assert file.tag == "x"
        # Global ids are row positions.
        assert [global_id_of(c, "x") for c in file.records] == list(range(5))

    def test_composite_width_accounts_all_aliases(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        width = composite_width(schemas, ["a", "b"])
        assert width == 2 * (16 + relation.schema.row_width)


class TestToRelation:
    def test_full_concatenation(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        composites = [
            merge_composites(singleton("a", 0, (0, 0)), singleton("b", 1, (1, 2)))
        ]
        out = composites_to_relation(composites, schemas, "out")
        assert out.schema.names == ("a_id", "a_v", "b_id", "b_v")
        assert out.rows == [(0, 0, 1, 2)]

    def test_projection(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        composites = [
            merge_composites(singleton("a", 0, (7, 8)), singleton("b", 1, (1, 2)))
        ]
        out = composites_to_relation(
            composites, schemas, "out", projection=[("b", "v"), ("a", "id")]
        )
        assert out.schema.names == ("b_v", "a_id")
        assert out.rows == [(2, 7)]
