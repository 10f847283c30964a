"""Tests for theta operators, predicates, and join conditions."""

import pytest

from repro.errors import QueryError
from repro.relational.predicates import (
    AttrRef,
    JoinCondition,
    JoinPredicate,
    ThetaOp,
    key_classes,
)
from repro.relational.schema import Schema


class TestThetaOp:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (ThetaOp.LT, 1, 2, True),
            (ThetaOp.LT, 2, 2, False),
            (ThetaOp.LE, 2, 2, True),
            (ThetaOp.EQ, 3, 3, True),
            (ThetaOp.EQ, 3, 4, False),
            (ThetaOp.GE, 4, 4, True),
            (ThetaOp.GT, 5, 4, True),
            (ThetaOp.NE, 5, 4, True),
            (ThetaOp.NE, 4, 4, False),
        ],
    )
    def test_evaluate(self, op, a, b, expected):
        assert op.evaluate(a, b) is expected

    def test_all_six_operators_exist(self):
        assert {op.symbol for op in ThetaOp} == {"<", "<=", "=", ">=", ">", "!="}

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_swapped_is_involution(self, op):
        assert op.swapped().swapped() is op

    def test_swapped_semantics(self):
        # a < b  <=>  b > a, for all test values.
        for a in range(3):
            for b in range(3):
                assert ThetaOp.LT.evaluate(a, b) == ThetaOp.GT.evaluate(b, a)
                assert ThetaOp.LE.evaluate(a, b) == ThetaOp.GE.evaluate(b, a)

    def test_from_symbol_aliases(self):
        assert ThetaOp.from_symbol("<>") is ThetaOp.NE
        assert ThetaOp.from_symbol("==") is ThetaOp.EQ
        with pytest.raises(QueryError):
            ThetaOp.from_symbol("~")


class TestJoinPredicate:
    def test_parse_simple(self):
        p = JoinPredicate.parse("t1.bt <= t2.bt")
        assert p.left == AttrRef("t1", "bt")
        assert p.op is ThetaOp.LE
        assert p.right == AttrRef("t2", "bt")

    def test_parse_with_offset(self):
        p = JoinPredicate.parse("t1.d + 3 > t3.d")
        assert p.left.offset == 3
        assert p.op is ThetaOp.GT

    def test_parse_negative_offset(self):
        p = JoinPredicate.parse("a.x - 2 < b.y")
        assert p.left.offset == -2

    def test_parse_rejects_garbage(self):
        with pytest.raises(QueryError):
            JoinPredicate.parse("no operator here")
        with pytest.raises(QueryError):
            JoinPredicate.parse("a < b")  # missing alias.attr form

    def test_same_alias_rejected(self):
        with pytest.raises(QueryError):
            JoinPredicate.parse("t1.a < t1.b")

    def test_evaluate_values_with_offsets(self):
        p = JoinPredicate.parse("a.x + 3 > b.y")
        assert p.evaluate_values(1, 3) is True   # 1+3 > 3
        assert p.evaluate_values(0, 3) is False  # 0+3 > 3 is false

    def test_oriented_swaps_sides(self):
        p = JoinPredicate.parse("a.x < b.y")
        flipped = p.oriented("b")
        assert flipped.left.alias == "b"
        assert flipped.op is ThetaOp.GT
        # Semantics preserved:
        assert p.evaluate_values(1, 5) == flipped.evaluate_values(5, 1)

    def test_oriented_noop_when_already_left(self):
        p = JoinPredicate.parse("a.x < b.y")
        assert p.oriented("a") is p

    def test_oriented_unknown_alias(self):
        with pytest.raises(QueryError):
            JoinPredicate.parse("a.x < b.y").oriented("z")


class TestKeyPredicates:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a.x = b.y", True),
            ("a.x + 1 = b.y", False),
            ("a.x = b.y - 2", False),
            ("a.x < b.y", False),
            ("a.x != b.y", False),
        ],
    )
    def test_is_key(self, text, expected):
        assert JoinPredicate.parse(text).is_key is expected

    def test_no_key_predicates_no_classes(self):
        assert key_classes([]) == []
        assert key_classes([JoinPredicate.parse("a.x < b.y")]) == []

    def test_offset_equality_skipped(self):
        predicates = [
            JoinPredicate.parse("a.x + 1 = b.y"),
            JoinPredicate.parse("b.z = c.z"),
        ]
        assert key_classes(predicates) == [[AttrRef("b", "z"), AttrRef("c", "z")]]

    def test_classes_merge_transitively(self):
        predicates = [
            JoinPredicate.parse("a.x = b.y"),
            JoinPredicate.parse("c.z = d.w"),
            JoinPredicate.parse("b.y = c.z"),
        ]
        (members,) = key_classes(predicates)
        assert [(ref.alias, ref.attr) for ref in members] == [
            ("a", "x"), ("b", "y"), ("c", "z"), ("d", "w"),
        ]

    def test_disjoint_classes_in_first_seen_order(self):
        predicates = [
            JoinPredicate.parse("a.k = b.k"),
            JoinPredicate.parse("a.d = b.d"),
            JoinPredicate.parse("b.k = c.k"),
        ]
        classes = key_classes(predicates)
        assert [[(r.alias, r.attr) for r in members] for members in classes] == [
            [("a", "k"), ("b", "k"), ("c", "k")],
            [("a", "d"), ("b", "d")],
        ]

    def test_repeated_reference_listed_once(self):
        predicates = [
            JoinPredicate.parse("a.x = b.y"),
            JoinPredicate.parse("b.y = a.x"),
        ]
        assert key_classes(predicates) == [[AttrRef("a", "x"), AttrRef("b", "y")]]


class TestJoinCondition:
    def test_parse_multiple_predicates(self):
        c = JoinCondition.parse(1, "t1.bt <= t2.bt", "t1.l >= t2.l")
        assert len(c.predicates) == 2
        assert c.aliases == ("t1", "t2")

    def test_condition_requires_same_pair(self):
        with pytest.raises(QueryError):
            JoinCondition.parse(1, "a.x < b.y", "a.x < c.y")

    def test_condition_requires_predicates(self):
        with pytest.raises(QueryError):
            JoinCondition(1, [])

    def test_is_pure_equi(self):
        assert JoinCondition.parse(1, "a.x = b.y").is_pure_equi
        assert not JoinCondition.parse(1, "a.x = b.y", "a.z < b.w").is_pure_equi
        assert not JoinCondition.parse(1, "a.x + 1 = b.y").is_pure_equi

    def test_other_alias(self):
        c = JoinCondition.parse(7, "a.x < b.y")
        assert c.other_alias("a") == "b"
        with pytest.raises(QueryError):
            c.other_alias("z")

    def test_evaluate_conjunction(self):
        schema = Schema.of("x:int", "y:int")
        c = JoinCondition.parse(1, "a.x < b.x", "a.y >= b.y")
        schemas = {"a": schema, "b": schema}
        assert c.evaluate({"a": (1, 5), "b": (2, 5)}, schemas) is True
        assert c.evaluate({"a": (1, 4), "b": (2, 5)}, schemas) is False

    def test_touches(self):
        c = JoinCondition.parse(1, "a.x < b.y")
        assert c.touches("a") and c.touches("b") and not c.touches("c")
