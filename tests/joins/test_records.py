"""Tests for composite join records, the slab, and the tuple-form merge
semantics the oracles are written over."""

import pickle

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.joins.records import (
    CompositeSlab,
    compose,
    composite_width,
    composites_to_relation,
    relation_to_composite_file,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

from tail_oracle import (
    aliases_of,
    entry_for,
    global_id_of,
    merge_composites,
    rows_by_alias,
    singleton,
    slab_of,
)


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
        # A one-alias slab whose global ids are the row positions.
        assert isinstance(file.records, CompositeSlab)
        assert file.records.cover == ("x",)
        assert list(file.records) == [
            singleton("x", i, row) for i, row in enumerate(relation.rows)
        ]
        assert file.records.tables[0][2] is relation.rows[2]

    def test_empty_relation_lifts_to_an_empty_slab(self):
        file = relation_to_composite_file(Relation("E", Schema.of("id:int")), "e")
        assert file.num_records == 0 and file.records.cover == ("e",)
        assert list(file.records) == []

    def test_composite_width_accounts_all_aliases(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        width = composite_width(schemas, ["a", "b"])
        assert width == 2 * (16 + relation.schema.row_width)


class TestToRelation:
    def test_full_concatenation(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        composites = slab_of(
            ("a", "b"),
            [merge_composites(singleton("a", 0, (0, 0)), singleton("b", 1, (1, 2)))],
        )
        out = composites_to_relation(composites, schemas, "out")
        assert out.schema.names == ("a_id", "a_v", "b_id", "b_v")
        assert out.rows == [(0, 0, 1, 2)]

    def test_projection(self, relation):
        schemas = {"a": relation.schema, "b": relation.schema}
        composites = slab_of(
            ("a", "b"),
            [merge_composites(singleton("a", 0, (7, 8)), singleton("b", 1, (1, 2)))],
        )
        out = composites_to_relation(
            composites, schemas, "out", projection=[("b", "v"), ("a", "id")]
        )
        assert out.schema.names == ("b_v", "a_id")
        assert out.rows == [(2, 7)]


def _composites(count, cover=("a", "c"), base=0):
    """Tuple-form composites over ``cover``; ids repeat, rows follow ids."""
    return [
        tuple(
            (alias, (base + i * (k + 2)) % 5, ((base + i * (k + 2)) % 5, alias))
            for k, alias in enumerate(cover)
        )
        for i in range(count)
    ]


class TestCompositeSlab:
    """The column-wise container must read exactly as the tuple form."""

    def test_reads_as_the_tuple_form(self):
        composites = _composites(7)
        slab = slab_of(("a", "c"), composites)
        assert len(slab) == 7
        assert list(slab) == composites
        assert tuple(slab) == tuple(composites)
        assert [slab[i] for i in range(7)] == composites
        assert slab[-1] == composites[-1]
        assert slab == composites and composites == slab
        assert slab != composites[:-1]
        assert list(slab) == list(slab), "iteration must be repeatable"
        ids = [entry[1] for composite in slab for entry in composite]
        assert all(type(gid) is int for gid in ids)

    def test_slices_are_slabs_over_the_same_tables(self):
        composites = _composites(9)
        slab = slab_of(("a", "c"), composites)
        for piece in (slice(2, 6), slice(None, 3), slice(4, None), slice(0, 0), slice(1, 9, 3)):
            cut = slab[piece]
            assert isinstance(cut, CompositeSlab)
            assert list(cut) == composites[piece]
            assert cut.tables[0] is slab.tables[0]

    def test_take_reorders_and_repeats(self):
        composites = _composites(6)
        slab = slab_of(("a", "c"), composites)
        at = np.array([5, 0, 0, 3])
        assert list(slab.take(at)) == [composites[i] for i in at]
        assert slab.take(at).ids("c").tolist() == [composites[i][1][1] for i in at]

    def test_compose_joins_parts_by_position_over_their_tables(self):
        left = slab_of(("a", "c"), _composites(4))
        right = slab_of(("b",), [(("b", i, (i, "b")),) for i in range(3)])
        at = [np.array([3, 0, 3]), np.array([2, 2, 0])]
        joined = compose([left, right], at)
        assert joined.cover == ("a", "b", "c")
        assert list(joined) == [
            tuple(sorted(left[i] + right[j])) for i, j in zip(*at)
        ]
        assert joined.tables == (left.tables[0], right.tables[0], left.tables[1])
        none = np.empty(0, dtype=np.int64)
        assert compose([left, right], [none, none]) == []
        # An alias two parts carry is read from the first.
        twice = compose([left, left.take(np.array([1, 2, 3, 0]))], at)
        assert twice.cover == ("a", "c") and list(twice) == [left[i] for i in at[0]]

    def test_pickles_as_vectors_and_tables(self):
        composites = _composites(8)
        slab = slab_of(("a", "c"), composites).take(
            np.array([7, 7, 1, 0])
        )
        clone = pickle.loads(pickle.dumps(slab, protocol=pickle.HIGHEST_PROTOCOL))
        assert isinstance(clone, CompositeSlab)
        assert clone.cover == ("a", "c")
        assert list(clone) == list(slab) == [composites[i] for i in (7, 7, 1, 0)]
        assert clone.index[0].dtype == slab.index[0].dtype

    def test_column_gathers_the_rows_own_objects(self):
        nan = float("nan")
        composites = [(("a", i, (i, value)),) for i, value in enumerate([1, 1.0, nan, "k"])]
        values = slab_of(("a",), composites).take(np.array([2, 0, 1, 2, 3])).column("a", 1)
        assert [type(value) for value in values] == [float, int, float, float, str]
        assert values[0] is nan and values[3] is nan
        assert values[1:3] == [1, 1.0] and values[4] == "k"

    def test_empty(self):
        empty = slab_of(("a", "b"), [])
        assert len(empty) == 0 and list(empty) == [] and empty == []
        assert list(empty[0:5]) == []
        assert pickle.loads(pickle.dumps(empty)) == []
        schemas = {"a": Schema.of("x:int"), "b": Schema.of("y:int")}
        assert composites_to_relation(empty, schemas, "out").rows == []

    @pytest.mark.parametrize(
        "bad",
        [
            (("a", 0, (0,)),),
            (("a", 0, (0,)), ("b", 1, (1,)), ("c", 2, (2,))),
            (("a", 0, (0,)), ("x", 1, (1,))),
        ],
    )
    def test_lifting_holds_composites_against_the_cover(self, bad):
        good = (("a", 0, (0,)), ("c", 1, (1,)))
        with pytest.raises(ExecutionError, match="cover"):
            slab_of(("a", "c"), [good, bad])

    def test_projection_reads_a_slab_whose_cover_matches(self):
        schemas = {"a": Schema.of("x:int", "y:str"), "c": Schema.of("x:int", "y:str")}
        composites = _composites(6)
        slab = slab_of(("a", "c"), composites).take(
            np.array([4, 4, 2])
        )
        out = composites_to_relation(
            slab, schemas, "out", [("c", "y"), ("a", "x"), ("a", "y")]
        )
        assert out.rows == [
            (composites[i][1][2][1], *composites[i][0][2]) for i in (4, 4, 2)
        ]
        with pytest.raises(ExecutionError, match="cover"):
            composites_to_relation(slab, {**schemas, "b": schemas["a"]}, "out")
