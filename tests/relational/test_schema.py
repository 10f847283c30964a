"""Tests for repro.relational.schema."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import DEFAULT_WIDTHS, Field, Schema


class TestField:
    def test_default_width_by_kind(self):
        assert Field("x", "int").byte_width == DEFAULT_WIDTHS["int"]
        assert Field("x", "str").byte_width == DEFAULT_WIDTHS["str"]

    def test_explicit_width_overrides_default(self):
        assert Field("x", "int", width=123).byte_width == 123

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Field("not a name", "int")
        with pytest.raises(SchemaError):
            Field("", "int")

    def test_invalid_kind_rejected(self):
        with pytest.raises(SchemaError):
            Field("x", "varchar")

    def test_negative_width_rejected(self):
        with pytest.raises(SchemaError):
            Field("x", "int", width=-1)


class TestSchema:
    def test_of_shorthand(self):
        schema = Schema.of("id:int", "name:str", "flag:bool")
        assert schema.names == ("id", "name", "flag")
        assert schema.field("name").kind == "str"

    def test_of_defaults_to_int(self):
        assert Schema.of("a", "b").field("a").kind == "int"

    def test_row_width_includes_header(self):
        schema = Schema.of("a:int", "b:int")
        assert schema.row_width == 8 + 8 + 8

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a:int", "a:int")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_index_of(self):
        schema = Schema.of("a", "b", "c")
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("zz")

    def test_contains(self):
        schema = Schema.of("a", "b")
        assert "a" in schema
        assert "z" not in schema

    def test_project_keeps_order(self):
        schema = Schema.of("a", "b", "c")
        projected = schema.project(["c", "a"])
        assert projected.names == ("c", "a")

    def test_equality_and_hash(self):
        assert Schema.of("a", "b") == Schema.of("a", "b")
        assert hash(Schema.of("a")) == hash(Schema.of("a"))
        assert Schema.of("a") != Schema.of("b")

    def test_len(self):
        assert len(Schema.of("a", "b", "c")) == 3
