"""Tests for repro.relational.relation."""

import pytest

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


@pytest.fixture
def relation() -> Relation:
    schema = Schema.of("id:int", "v:int")
    return Relation("R", schema, [(i, i * 10) for i in range(10)])


class TestConstruction:
    def test_rows_are_tuples(self, relation):
        assert all(isinstance(r, tuple) for r in relation)

    def test_arity_mismatch_rejected(self):
        schema = Schema.of("id:int", "v:int")
        with pytest.raises(SchemaError):
            Relation("R", schema, [(1, 2, 3)])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Relation("", Schema.of("a"))

    def test_append_and_extend(self, relation):
        relation.append((10, 100))
        relation.extend([(11, 110), (12, 120)])
        assert len(relation) == 13

    def test_size_bytes(self, relation):
        assert relation.size_bytes == 10 * relation.schema.row_width


class TestAccessors:
    def test_column(self, relation):
        assert relation.column("v") == [i * 10 for i in range(10)]

    def test_value(self, relation):
        assert relation.value(relation[3], "v") == 30

    def test_cardinality(self, relation):
        assert relation.cardinality == 10

    def test_renamed_shares_rows(self, relation):
        clone = relation.renamed("S")
        relation.append((99, 990))
        assert len(clone) == 11
        assert clone.name == "S"


class TestOperators:
    def test_select(self, relation):
        out = relation.select(lambda r: r[1] >= 50)
        assert len(out) == 5

    def test_project(self, relation):
        out = relation.project(["v"])
        assert out.schema.names == ("v",)
        assert out[0] == (0,)

    def test_distinct(self):
        schema = Schema.of("a")
        rel = Relation("R", schema, [(1,), (1,), (2,)])
        assert len(rel.distinct()) == 2

    def test_sample_bounded_and_deterministic(self, relation):
        s1 = relation.sample(4, make_rng("s", 1))
        s2 = relation.sample(4, make_rng("s", 1))
        assert len(s1) == 4
        assert s1.rows == s2.rows

    def test_sample_larger_than_relation(self, relation):
        assert len(relation.sample(100)) == 10

    def test_head(self, relation):
        assert relation.head(3).rows == relation.rows[:3]
