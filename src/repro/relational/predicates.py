"""Theta-join predicates.

The paper defines the join condition function theta over
``{<, <=, =, >=, >, <>}``.  A :class:`JoinPredicate` is one such atomic
comparison between an attribute of a left relation (plus an optional
constant offset) and an attribute of a right relation (plus offset), e.g.
the trip-planning condition ``FI1.at + L.l1 < FI2.dt`` from the paper's
Section 2.2 or the mobile query condition ``t1.d + 3 > t3.d``.

A :class:`JoinCondition` is a *conjunction* of predicates between the same
pair of relations — one labelled edge (one theta function) of the join
graph.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import QueryError


class ThetaOp(enum.Enum):
    """The six theta comparison operators of the paper."""

    LT = "<"
    LE = "<="
    EQ = "="
    GE = ">="
    GT = ">"
    NE = "!="

    def evaluate(self, left: object, right: object) -> bool:
        if self is ThetaOp.LT:
            return left < right  # type: ignore[operator]
        if self is ThetaOp.LE:
            return left <= right  # type: ignore[operator]
        if self is ThetaOp.EQ:
            return left == right
        if self is ThetaOp.GE:
            return left >= right  # type: ignore[operator]
        if self is ThetaOp.GT:
            return left > right  # type: ignore[operator]
        return left != right

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def as_function(self) -> Callable[[object, object], bool]:
        """The comparison as a plain callable, for compiled hot loops."""
        return _OP_FUNCTIONS[self]

    @property
    def is_equality(self) -> bool:
        return self is ThetaOp.EQ

    def swapped(self) -> "ThetaOp":
        """The operator obtained when the two sides are exchanged.

        ``a < b`` is ``b > a``; equality and inequality are symmetric.
        """
        return _SWAPPED[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "ThetaOp":
        normalized = {"<>": "!=", "==": "=", "≤": "<=", "≥": ">="}.get(symbol, symbol)
        for op in cls:
            if op.value == normalized:
                return op
        raise QueryError(f"unknown theta operator {symbol!r}")


_OP_FUNCTIONS = {
    ThetaOp.LT: operator.lt,
    ThetaOp.LE: operator.le,
    ThetaOp.EQ: operator.eq,
    ThetaOp.GE: operator.ge,
    ThetaOp.GT: operator.gt,
    ThetaOp.NE: operator.ne,
}

_SWAPPED = {
    ThetaOp.LT: ThetaOp.GT,
    ThetaOp.LE: ThetaOp.GE,
    ThetaOp.EQ: ThetaOp.EQ,
    ThetaOp.GE: ThetaOp.LE,
    ThetaOp.GT: ThetaOp.LT,
    ThetaOp.NE: ThetaOp.NE,
}


@dataclass(frozen=True)
class AttrRef:
    """A reference ``alias.attr + offset`` to one side of a predicate."""

    alias: str
    attr: str
    offset: float = 0.0

    def __str__(self) -> str:
        if self.offset:
            sign = "+" if self.offset > 0 else "-"
            return f"{self.alias}.{self.attr}{sign}{abs(self.offset):g}"
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True)
class JoinPredicate:
    """One atomic comparison ``left.attr + c1  op  right.attr + c2``."""

    left: AttrRef
    op: ThetaOp
    right: AttrRef

    def __post_init__(self) -> None:
        if self.left.alias == self.right.alias:
            raise QueryError(
                f"join predicate must reference two distinct relations, got "
                f"{self.left.alias!r} on both sides"
            )

    def __str__(self) -> str:
        return f"{self.left} {self.op.symbol} {self.right}"

    @property
    def aliases(self) -> Tuple[str, str]:
        return (self.left.alias, self.right.alias)

    @property
    def is_key(self) -> bool:
        """A zero-offset equality: both sides can be partitioned on it."""
        return self.op.is_equality and self.left.offset == 0 and self.right.offset == 0

    def oriented(self, first_alias: str) -> "JoinPredicate":
        """Return an equivalent predicate whose left side is ``first_alias``."""
        if self.left.alias == first_alias:
            return self
        if self.right.alias != first_alias:
            raise QueryError(f"{first_alias!r} is not a side of predicate {self}")
        return JoinPredicate(self.right, self.op.swapped(), self.left)

    def evaluate_values(self, left_value: object, right_value: object) -> bool:
        """Apply offsets and the operator to raw attribute values."""
        lhs = left_value
        rhs = right_value
        if self.left.offset:
            lhs = lhs + self.left.offset  # type: ignore[operator]
        if self.right.offset:
            rhs = rhs + self.right.offset  # type: ignore[operator]
        return self.op.evaluate(lhs, rhs)

    @classmethod
    def parse(cls, text: str) -> "JoinPredicate":
        """Parse ``"t1.bt <= t2.bt"`` or ``"t1.d + 3 > t3.d"`` style strings."""
        for symbol in ("<=", ">=", "!=", "<>", "==", "<", ">", "="):
            if symbol in text:
                left_text, right_text = text.split(symbol, 1)
                return cls(
                    _parse_ref(left_text), ThetaOp.from_symbol(symbol), _parse_ref(right_text)
                )
        raise QueryError(f"no theta operator found in predicate {text!r}")


def key_classes(predicates: Iterable[JoinPredicate]) -> List[List[AttrRef]]:
    """Equality classes of the attribute references the key predicates join.

    Union-find over ``(alias, attr)``: each zero-offset equality joins its
    two sides' classes; other predicates are skipped.  A class lists the
    first reference seen for each of its ``(alias, attr)`` pairs in
    first-seen order, and the classes come in the order of their first
    reference.
    """
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}
    first: Dict[Tuple[str, str], AttrRef] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for predicate in predicates:
        if not predicate.is_key:
            continue
        sides = []
        for ref in (predicate.left, predicate.right):
            node = (ref.alias, ref.attr)
            first.setdefault(node, ref)
            parent.setdefault(node, node)
            sides.append(find(node))
        if sides[0] != sides[1]:
            parent[sides[0]] = sides[1]

    classes: Dict[Tuple[str, str], List[AttrRef]] = {}
    for node, ref in first.items():
        classes.setdefault(find(node), []).append(ref)
    return list(classes.values())


def _parse_ref(text: str) -> AttrRef:
    body = text.strip()
    offset = 0.0
    for sign in ("+", "-"):
        # Split on an offset that follows the attribute, e.g. "t1.d + 3".
        parts = body.split(sign)
        if len(parts) == 2 and "." in parts[0]:
            maybe_num = parts[1].strip()
            try:
                offset = float(maybe_num) * (1 if sign == "+" else -1)
                body = parts[0].strip()
                break
            except ValueError:
                continue
    if "." not in body:
        raise QueryError(f"attribute reference must look like alias.attr: {text!r}")
    alias, attr = body.split(".", 1)
    return AttrRef(alias.strip(), attr.strip(), offset)


class JoinCondition:
    """A conjunction of predicates between the same two relations.

    This is one theta function: one labelled edge of the join graph
    (Definition 1 in the paper).  ``condition_id`` is the theta subscript.
    """

    def __init__(
        self,
        condition_id: int,
        predicates: Sequence[JoinPredicate],
    ) -> None:
        if not predicates:
            raise QueryError("join condition needs at least one predicate")
        aliases = {frozenset(p.aliases) for p in predicates}
        if len(aliases) != 1:
            raise QueryError(
                "all predicates of one join condition must connect the same "
                f"pair of relations, got {aliases}"
            )
        self.condition_id = condition_id
        self.predicates: Tuple[JoinPredicate, ...] = tuple(predicates)
        pair = sorted(next(iter(aliases)))
        self.left_alias: str = pair[0]
        self.right_alias: str = pair[1]

    def __repr__(self) -> str:
        preds = " AND ".join(str(p) for p in self.predicates)
        return f"theta{self.condition_id}[{preds}]"

    @property
    def aliases(self) -> Tuple[str, str]:
        return (self.left_alias, self.right_alias)

    @property
    def is_pure_equi(self) -> bool:
        """True when every predicate is an equality with no offsets."""
        return all(p.is_key for p in self.predicates)

    def other_alias(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise QueryError(f"{alias!r} is not a side of condition {self!r}")

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def evaluate(self, rows, schemas_by_alias) -> bool:
        """Evaluate the conjunction given ``alias -> row`` and ``alias -> schema``."""
        for predicate in self.predicates:
            left_schema = schemas_by_alias[predicate.left.alias]
            right_schema = schemas_by_alias[predicate.right.alias]
            left_value = rows[predicate.left.alias][
                left_schema.index_of(predicate.left.attr)
            ]
            right_value = rows[predicate.right.alias][
                right_schema.index_of(predicate.right.attr)
            ]
            if not predicate.evaluate_values(left_value, right_value):
                return False
        return True

    @classmethod
    def parse(cls, condition_id: int, *texts: str) -> "JoinCondition":
        """Build from predicate strings, e.g. ``parse(1, "t1.bt <= t2.bt")``."""
        return cls(condition_id, [JoinPredicate.parse(t) for t in texts])
