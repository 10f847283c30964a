"""Histograms and closed-form theta-join selectivity.

The planner's stock estimator (:class:`repro.relational.statistics.
SelectivityEstimator`) integrates one histogram against the other by
sampling bucket midpoints.  This module provides the exact alternative:
proper histogram objects (equi-width and equi-depth) and *closed-form*
bucket-pair integration of ``P[x  op  y + shift]`` under the standard
uniform-within-bucket assumption — no midpoint sampling error.

Two entry points:

* :func:`range_join_selectivity` / :func:`equality_join_selectivity` —
  selectivity of a single theta comparison between two histograms;
* :class:`ClosedFormSelectivityEstimator` — a drop-in replacement for the
  stock estimator that routes range predicates through the closed form
  (pass it to the planner via ``CandidateJobCosting``'s catalog hooks or
  use it directly in tests/benchmarks).

All formulas treat a zero-width bucket as an atom (point mass), which is
what equi-depth boundaries degenerate to on heavily repeated values, so
strict (``<``) and non-strict (``<=``) comparisons differ exactly where
they should.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.predicates import JoinPredicate, ThetaOp
from repro.relational.statistics import (
    ColumnStats,
    SelectivityEstimator,
    StatisticsCatalog,
)


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: value interval ``[lo, hi]`` holding ``mass``
    fraction of the rows.  ``lo == hi`` is an atom."""

    lo: float
    hi: float
    mass: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise SchemaError(f"bucket upper bound {self.hi} below lower {self.lo}")
        if self.mass < 0:
            raise SchemaError(f"bucket mass must be >= 0, got {self.mass}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_atom(self) -> bool:
        return self.hi == self.lo

    def shifted(self, delta: float) -> "Bucket":
        return Bucket(self.lo + delta, self.hi + delta, self.mass)


class Histogram:
    """A normalised one-dimensional histogram (bucket masses sum to 1)."""

    def __init__(self, buckets: Sequence[Bucket], distinct: int = 0) -> None:
        if not buckets:
            raise SchemaError("histogram needs at least one bucket")
        total = sum(b.mass for b in buckets)
        if total <= 0:
            raise SchemaError("histogram has no mass")
        self.buckets: Tuple[Bucket, ...] = tuple(
            Bucket(b.lo, b.hi, b.mass / total) for b in buckets
        )
        for before, after in zip(self.buckets, self.buckets[1:]):
            if after.lo < before.hi:
                raise SchemaError("histogram buckets must not overlap")
        #: Estimated distinct-value count (0 = unknown).
        self.distinct = distinct

    # -- construction ------------------------------------------------------

    @classmethod
    def equi_width(cls, values: Sequence[float], buckets: int = 20) -> "Histogram":
        """Fixed-width buckets over ``[min, max]`` with counted masses."""
        if not values:
            raise SchemaError("cannot build a histogram from no values")
        if buckets < 1:
            raise SchemaError("bucket count must be >= 1")
        ordered = sorted(float(v) for v in values)
        lo, hi = ordered[0], ordered[-1]
        distinct = len(set(ordered))
        if lo == hi:
            return cls([Bucket(lo, hi, 1.0)], distinct=1)
        width = (hi - lo) / buckets
        counts = [0] * buckets
        for value in ordered:
            index = min(int((value - lo) / width), buckets - 1)
            counts[index] += 1
        built = [
            Bucket(lo + i * width, lo + (i + 1) * width, count / len(ordered))
            for i, count in enumerate(counts)
            if count
        ]
        return cls(built, distinct=distinct)

    @classmethod
    def equi_depth(cls, values: Sequence[float], buckets: int = 20) -> "Histogram":
        """Quantile buckets, each holding (nearly) the same row share."""
        if not values:
            raise SchemaError("cannot build a histogram from no values")
        if buckets < 1:
            raise SchemaError("bucket count must be >= 1")
        ordered = sorted(float(v) for v in values)
        distinct = len(set(ordered))
        n = len(ordered)
        buckets = min(buckets, n)
        built: List[Bucket] = []
        for b in range(buckets):
            lo_index = (b * n) // buckets
            hi_index = ((b + 1) * n) // buckets - 1
            if hi_index < lo_index:
                continue
            lo, hi = ordered[lo_index], ordered[hi_index]
            mass = (hi_index - lo_index + 1) / n
            if built and lo < built[-1].hi:
                lo = built[-1].hi
                hi = max(hi, lo)
            if built and lo == built[-1].hi == hi and built[-1].is_atom:
                # Merge consecutive atoms at the same value.
                previous = built.pop()
                built.append(Bucket(lo, hi, previous.mass + mass))
                continue
            built.append(Bucket(lo, hi, mass))
        return cls(built, distinct=distinct)

    @classmethod
    def from_column_stats(cls, stats: ColumnStats) -> "Histogram":
        """Adapt the planner's :class:`ColumnStats` equi-depth boundaries."""
        if stats.count == 0:
            raise SchemaError(f"column {stats.name!r} has no rows")
        bounds = stats.boundaries
        share = 1.0 / max(1, len(bounds) - 1)
        buckets = [
            Bucket(bounds[i], bounds[i + 1], share)
            for i in range(len(bounds) - 1)
        ]
        if not buckets:  # single boundary: constant column
            buckets = [Bucket(bounds[0], bounds[0], 1.0)]
        return cls(buckets, distinct=stats.distinct)

    # -- queries -------------------------------------------------------------

    @property
    def min_value(self) -> float:
        return self.buckets[0].lo

    @property
    def max_value(self) -> float:
        return self.buckets[-1].hi

    @property
    def span(self) -> float:
        return self.max_value - self.min_value

    def fraction_below(self, value: float, inclusive: bool = False) -> float:
        """Mass strictly below ``value`` (or at-or-below when inclusive)."""
        total = 0.0
        for bucket in self.buckets:
            if bucket.hi < value or (inclusive and bucket.hi == value):
                total += bucket.mass
            elif bucket.lo < value:
                if bucket.is_atom:
                    # lo == hi == value and not inclusive: excluded.
                    continue
                total += bucket.mass * (value - bucket.lo) / bucket.width
            else:
                break
        return min(1.0, total)

    def shifted(self, delta: float) -> "Histogram":
        return Histogram(
            [b.shifted(delta) for b in self.buckets], distinct=self.distinct
        )


# ---------------------------------------------------------------------------
# Closed-form bucket-pair comparison
# ---------------------------------------------------------------------------

def _prob_less(x: Bucket, y: Bucket, or_equal: bool) -> float:
    """``P[X < Y]`` (or ``<=``) for X ~ U[x.lo, x.hi], Y ~ U[y.lo, y.hi].

    Atoms are point masses; for two atoms the strict/non-strict
    distinction is exact.  For any pair with a continuous side the
    boundary has measure zero, so the flag does not matter there.
    """
    if x.is_atom and y.is_atom:
        if x.lo == y.lo:
            return 1.0 if or_equal else 0.0
        return 1.0 if x.lo < y.lo else 0.0
    if x.is_atom:
        # P[x.lo < Y] = fraction of Y above the atom.
        if y.is_atom:  # pragma: no cover - handled above
            raise AssertionError
        if x.lo <= y.lo:
            return 1.0
        if x.lo >= y.hi:
            return 0.0
        return (y.hi - x.lo) / y.width
    if y.is_atom:
        # P[X < y.lo].
        if y.lo >= x.hi:
            return 1.0
        if y.lo <= x.lo:
            return 0.0
        return (y.lo - x.lo) / x.width
    # Both continuous: integrate F_X over [y.lo, y.hi].
    if x.hi <= y.lo:
        return 1.0
    if y.hi <= x.lo:
        return 0.0
    # Intervals overlap: normalise by the wider width so denormal-width
    # buckets (quantile boundaries of heavily repeated values) cannot
    # underflow the squared terms.  Probabilities are scale-invariant.
    # Normalised widths are computed from the raw widths — never by
    # subtracting shifted endpoints, which cancels catastrophically when
    # one bucket is far narrower than the other.
    scale = max(x.width, y.width)
    b = x.width / scale
    y_width = y.width / scale
    if y_width < 1e-9:
        # y is negligibly narrow at this scale: an atom at its midpoint.
        position = ((y.lo + y.hi) / 2.0 - x.lo) / x.width
        return min(1.0, max(0.0, position))
    if b < 1e-9:
        # x is negligibly narrow: an atom at its midpoint inside y.
        position = ((x.lo + x.hi) / 2.0 - y.lo) / y.width
        return min(1.0, max(0.0, 1.0 - position))
    c = (y.lo - x.lo) / scale
    d = c + y_width
    a = 0.0
    total = 0.0
    # Segment of [c, d] below a contributes 0.
    mid_lo = max(c, a)
    mid_hi = min(d, b)
    if mid_hi > mid_lo:
        # Integral of (v - a) / (b - a) over [mid_lo, mid_hi].
        total += ((mid_hi - a) ** 2 - (mid_lo - a) ** 2) / (2.0 * b)
    if d > b:
        total += d - max(c, b)
    return min(1.0, max(0.0, total / y_width))


def range_join_selectivity(
    left: Histogram,
    right: Histogram,
    op: ThetaOp,
    shift: float = 0.0,
) -> float:
    """Closed-form ``P[x  op  y + shift]`` for x ~ left, y ~ right.

    Sums the exact per-bucket-pair probability weighted by the joint
    bucket masses.  Supports every theta operator; equality and
    not-equality route through :func:`equality_join_selectivity`.
    """
    if op is ThetaOp.EQ:
        return equality_join_selectivity(left, right, shift)
    if op is ThetaOp.NE:
        return max(0.0, 1.0 - equality_join_selectivity(left, right, shift))
    shifted = right.shifted(shift) if shift else right
    total = 0.0
    for x in left.buckets:
        for y in shifted.buckets:
            if op is ThetaOp.LT:
                p = _prob_less(x, y, or_equal=False)
            elif op is ThetaOp.LE:
                p = _prob_less(x, y, or_equal=True)
            elif op is ThetaOp.GT:
                p = 1.0 - _prob_less(x, y, or_equal=True)
            else:  # GE
                p = 1.0 - _prob_less(x, y, or_equal=False)
            total += x.mass * y.mass * p
    return min(1.0, max(0.0, total))


def equality_join_selectivity(
    left: Histogram, right: Histogram, shift: float = 0.0
) -> float:
    """``P[x == y + shift]`` from density overlap and distinct counts.

    Under uniform-within-bucket densities the match probability is the
    density-overlap integral times the average spacing between distinct
    values, ``span / max(d_l, d_r)`` — for two uniform columns with ``d``
    aligned distinct values this reduces to the textbook ``1/d``.
    """
    shifted = right.shifted(shift) if shift else right
    overlap = 0.0
    for x in left.buckets:
        for y in shifted.buckets:
            if x.is_atom and y.is_atom:
                if x.lo == y.lo:
                    overlap += x.mass * y.mass  # exact atom match
                continue
            lo = max(x.lo, y.lo)
            hi = min(x.hi, y.hi)
            if hi <= lo:
                continue
            distinct = max(left.distinct, shifted.distinct, 1)
            span = max(left.span, shifted.span, 1e-12)
            if x.is_atom:
                # atom vs continuous: joint density integral is
                # mass_x * mass_y / width_y; spacing conversion as below.
                contribution = x.mass * y.mass * (span / y.width) / distinct
            elif y.is_atom:
                contribution = x.mass * y.mass * (span / x.width) / distinct
            else:
                # overlap density integral times the average spacing
                # between distinct values, computed in an order that keeps
                # every factor finite for denormal-width buckets.
                contribution = (
                    x.mass
                    * y.mass
                    * ((hi - lo) / x.width)
                    * (span / y.width)
                    / distinct
                )
            overlap += min(x.mass * y.mass, contribution)
    return min(1.0, max(0.0, overlap))


# ---------------------------------------------------------------------------
# Drop-in estimator
# ---------------------------------------------------------------------------

class ClosedFormSelectivityEstimator(SelectivityEstimator):
    """The stock estimator with range predicates computed in closed form.

    Equality keeps the end-biased (hot-value) estimate of the parent
    class, which is better on skewed keys; strict/non-strict range
    comparisons use exact bucket-pair integration instead of midpoint
    sampling.
    """

    def __init__(self, catalog: StatisticsCatalog) -> None:
        super().__init__(catalog)
        self._histograms: dict = {}

    def _histogram(self, relation_name: str, attr: str) -> Histogram:
        key = (relation_name, attr)
        if key not in self._histograms:
            stats = self.catalog.get(relation_name).column(attr)
            self._histograms[key] = Histogram.from_column_stats(stats)
        return self._histograms[key]

    def predicate_selectivity(
        self,
        predicate: JoinPredicate,
        left_relation_name: str,
        right_relation_name: str,
    ) -> float:
        if predicate.op in (ThetaOp.EQ, ThetaOp.NE):
            return super().predicate_selectivity(
                predicate, left_relation_name, right_relation_name
            )
        left_stats = self.catalog.get(left_relation_name).column(predicate.left.attr)
        right_stats = self.catalog.get(right_relation_name).column(
            predicate.right.attr
        )
        if left_stats.count == 0 or right_stats.count == 0:
            return 0.0
        left = self._histogram(left_relation_name, predicate.left.attr)
        right = self._histogram(right_relation_name, predicate.right.attr)
        shift = predicate.right.offset - predicate.left.offset
        return range_join_selectivity(left, right, predicate.op, shift=shift)
