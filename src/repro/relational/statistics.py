"""Per-relation statistics and theta-selectivity estimation.

The paper's planner relies on "data statistics and index structures"
collected by a sampling pass when data is uploaded (Section 6.3).  This
module implements those statistics:

* :class:`ColumnStats` — min/max, distinct estimate, equi-depth histogram;
* :class:`RelationStats` — cardinality, row width, per-column stats;
* :class:`SelectivityEstimator` — selectivity of a single theta predicate,
  of a conjunction (one condition edge), and of a multi-condition job,
  using histograms with a sample-based cross-check.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.predicates import (
    JoinCondition,
    JoinPredicate,
    ThetaOp,
)
from repro.relational.relation import Relation
from repro.utils import make_rng


@dataclass
class ColumnStats:
    """Summary statistics for one column of a relation."""

    name: str
    count: int
    min_value: float
    max_value: float
    distinct: int
    #: Equi-depth histogram boundaries (ascending); ``len == buckets + 1``.
    boundaries: Tuple[float, ...]
    #: Most frequent values as (value, fraction-of-rows), descending; the
    #: end-biased histogram part that makes skewed equality joins and
    #: reducer hot spots estimable.
    top_frequencies: Tuple[Tuple[object, float], ...] = ()

    @property
    def max_frequency(self) -> float:
        """Fraction of rows held by the most common value."""
        if self.top_frequencies:
            return self.top_frequencies[0][1]
        if self.distinct:
            return 1.0 / self.distinct
        return 0.0

    @property
    def buckets(self) -> int:
        return max(1, len(self.boundaries) - 1)

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of column values ``< value`` (or ``<=``).

        Uses linear interpolation inside the equi-depth histogram bucket,
        the textbook estimate for range selectivities.
        """
        if self.count == 0:
            return 0.0
        bounds = self.boundaries
        if value < bounds[0]:
            return 0.0
        if value > bounds[-1]:
            return 1.0
        if value == bounds[-1]:
            return 1.0 if inclusive else max(0.0, 1.0 - 1.0 / self.count)
        # Each bucket holds an equal share of rows.
        bucket = min(bisect.bisect_right(bounds, value) - 1, self.buckets - 1)
        lo, hi = bounds[bucket], bounds[bucket + 1]
        inside = 0.0 if hi == lo else (value - lo) / (hi - lo)
        return (bucket + inside) / self.buckets


@dataclass
class RelationStats:
    """Statistics for one relation, computed from a sample or the full data."""

    name: str
    cardinality: int
    row_width: int
    columns: Dict[str, ColumnStats]

    @property
    def size_bytes(self) -> int:
        return self.cardinality * self.row_width

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"no statistics for column {name!r} of {self.name!r}; "
                f"have {sorted(self.columns)}"
            ) from None


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compute_column_stats(
    name: str, values: Sequence[object], buckets: int = 20, top_k: int = 8
) -> ColumnStats:
    """Equi-depth histogram over the numeric view of ``values``.

    Non-numeric values are mapped through a stable ordering so theta
    comparisons on strings still get a usable histogram.  The ``top_k``
    most frequent values are recorded with their frequencies (end-biased
    histogram) for skew-aware equality estimates.
    """
    if not values:
        return ColumnStats(name, 0, 0.0, 0.0, 0, (0.0, 0.0))
    frequency: Dict[object, int] = {}
    for value in values:
        frequency[value] = frequency.get(value, 0) + 1
    top = sorted(frequency.items(), key=lambda kv: (-kv[1], str(kv[0])))[:top_k]
    top_frequencies = tuple((value, count / len(values)) for value, count in top)
    if _is_numeric(values[0]):
        numeric = sorted(float(v) for v in values)  # type: ignore[arg-type]
    else:
        # Rank-transform non-numeric values: histogram over ranks.
        order = {v: i for i, v in enumerate(sorted(set(map(str, values))))}
        numeric = sorted(float(order[str(v)]) for v in values)
    distinct = len(set(values))
    buckets = max(1, min(buckets, len(numeric)))
    boundaries: List[float] = [numeric[0]]
    for b in range(1, buckets):
        boundaries.append(numeric[(b * len(numeric)) // buckets])
    boundaries.append(numeric[-1])
    # De-duplicate while keeping monotone non-decreasing boundaries.
    mono: List[float] = [boundaries[0]]
    for bound in boundaries[1:]:
        mono.append(max(bound, mono[-1]))
    return ColumnStats(
        name=name,
        count=len(values),
        min_value=numeric[0],
        max_value=numeric[-1],
        distinct=distinct,
        boundaries=tuple(mono),
        top_frequencies=top_frequencies,
    )


def compute_relation_stats(
    relation: Relation,
    sample_size: int = 2000,
    buckets: int = 20,
) -> RelationStats:
    """Sample the relation and summarise every column.

    Cardinality and row width are exact (cheap to know at upload time);
    per-column histograms come from the sample, as the paper's upload-time
    sampling pass does.
    """
    sample = (
        relation
        if len(relation) <= sample_size
        else relation.sample(sample_size, make_rng("stats", relation.name, sample_size))
    )
    columns = {}
    for field in relation.schema.fields:
        columns[field.name] = compute_column_stats(
            field.name, sample.column(field.name), buckets=buckets
        )
    return RelationStats(
        name=relation.name,
        cardinality=relation.cardinality,
        row_width=relation.schema.row_width,
        columns=columns,
    )


class StatisticsCatalog:
    """All relation statistics known to the planner, keyed by relation name."""

    def __init__(self) -> None:
        self._stats: Dict[str, RelationStats] = {}

    def add(self, stats: RelationStats) -> None:
        self._stats[stats.name] = stats

    def add_relation(
        self, relation: Relation, sample_size: int = 2000, cache=None
    ) -> RelationStats:
        """Compute (or fetch from a :class:`PlanningCache`) and register stats.

        ``cache`` is any object with a ``relation_stats(relation,
        sample_size)`` method — duck-typed so this module stays free of a
        dependency on :mod:`repro.relational.stats_cache`.
        """
        if cache is not None:
            stats = cache.relation_stats(relation, sample_size=sample_size)
        else:
            stats = compute_relation_stats(relation, sample_size=sample_size)
        self.add(stats)
        return stats

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def get(self, name: str) -> RelationStats:
        try:
            return self._stats[name]
        except KeyError:
            raise SchemaError(f"no statistics recorded for relation {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._stats)


class SelectivityEstimator:
    """Histogram-based selectivity estimates for theta predicates.

    The estimate of ``P[l.attr + c1  op  r.attr + c2]`` integrates the
    right-hand histogram against the left-hand one: for each left bucket
    midpoint we ask the right histogram what fraction of values satisfies
    the comparison, then average.  This is exact for independent uniform
    buckets and degrades gracefully elsewhere.
    """

    def __init__(self, catalog: StatisticsCatalog) -> None:
        self.catalog = catalog

    # -- single predicate ------------------------------------------------

    def predicate_selectivity(
        self,
        predicate: JoinPredicate,
        left_relation_name: str,
        right_relation_name: str,
    ) -> float:
        left = self.catalog.get(left_relation_name).column(predicate.left.attr)
        right = self.catalog.get(right_relation_name).column(predicate.right.attr)
        if left.count == 0 or right.count == 0:
            return 0.0
        op = predicate.op
        shift = predicate.left.offset - predicate.right.offset

        if op is ThetaOp.EQ:
            lo = max(left.min_value + shift, right.min_value)
            hi = min(left.max_value + shift, right.max_value)
            if hi < lo:
                return 0.0
            if shift == 0 and left.top_frequencies and right.top_frequencies:
                # End-biased estimate: exact on the hot values, uniform on
                # the residual tail — this is what makes Zipf-ish keys
                # (e.g. popular base stations) costed correctly.
                top_left = dict(left.top_frequencies)
                top_right = dict(right.top_frequencies)
                common = sum(
                    fraction * top_right[value]
                    for value, fraction in top_left.items()
                    if value in top_right
                )
                mass_left = max(0.0, 1.0 - sum(top_left.values()))
                mass_right = max(0.0, 1.0 - sum(top_right.values()))
                residual_distinct = max(
                    1, max(left.distinct, right.distinct) - len(top_right)
                )
                return min(1.0, common + mass_left * mass_right / residual_distinct)
            # Shifted equality: fraction of left values landing in the
            # shared range, times a uniform-per-distinct match chance.
            left_span = max(left.max_value - left.min_value, 1e-12)
            overlap_fraction = (
                min(1.0, max(0.0, (hi - lo) / left_span))
                if hi > lo
                else 1.0 / max(left.distinct, 1)
            )
            return min(1.0, overlap_fraction / max(right.distinct, 1))
        if op is ThetaOp.NE:
            eq = self.predicate_selectivity(
                JoinPredicate(predicate.left, ThetaOp.EQ, predicate.right),
                left_relation_name,
                right_relation_name,
            )
            return max(0.0, 1.0 - eq)

        # Range operators: integrate over left bucket midpoints.
        total = 0.0
        samples = 0
        for b in range(left.buckets):
            lo, hi = left.boundaries[b], left.boundaries[b + 1]
            mid = (lo + hi) / 2.0 + shift
            if op in (ThetaOp.LT, ThetaOp.LE):
                # P[mid op right] = fraction of right values above mid.
                frac = 1.0 - right.fraction_below(mid, inclusive=(op is ThetaOp.LT))
            else:  # GT, GE
                frac = right.fraction_below(mid, inclusive=(op is ThetaOp.GE))
            total += frac
            samples += 1
        return min(1.0, max(0.0, total / max(samples, 1)))

    # -- condition (conjunction) -----------------------------------------

    def condition_selectivity(
        self,
        condition: JoinCondition,
        relation_names: Mapping[str, str],
    ) -> float:
        """Selectivity of one theta edge (product over its predicates).

        ``relation_names`` maps alias -> underlying relation name.
        Independence between conjunct predicates is assumed, the standard
        System-R style approximation.
        """
        selectivity = 1.0
        for predicate in condition.predicates:
            selectivity *= self.predicate_selectivity(
                predicate,
                relation_names[predicate.left.alias],
                relation_names[predicate.right.alias],
            )
        return selectivity

    def conditions_selectivity(
        self,
        conditions: Sequence[JoinCondition],
        relation_names: Mapping[str, str],
    ) -> float:
        selectivity = 1.0
        for condition in conditions:
            selectivity *= self.condition_selectivity(condition, relation_names)
        return selectivity
