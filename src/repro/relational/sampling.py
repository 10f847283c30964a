"""Sampling-based join cardinality estimation.

The paper's loading pipeline "runs a sampling algorithm to collect rough
data statistics and build the index structure" (Section 6.3), and its
planner leans on those statistics.  Histogram products with an
independence assumption misprice correlated condition sets badly (e.g.
the Q3 day-window triangle is overestimated by two orders of magnitude),
so — like the paper — we estimate *joint* selectivities by actually
joining samples.

:class:`SampledJoinEstimator` progressively joins per-relation samples
for any connected set of conditions, with a work cap; when the cap is
exceeded it falls back to the histogram-product estimate.  The join is
one NumPy kernel over the samples' column arrays: partial results are
index vectors, each step is a broadcast comparison mask, and the counts
are exactly those of a tuple-at-a-time nested loop (which survives as
the reference oracle in ``tests/relational/test_sampling.py``).  Results
are cached per condition set within an estimator, and the raw sample-join
observations are shared *across* estimators, planners, and queries via
the process-wide :class:`~repro.relational.stats_cache.PlanningCache`
(keyed by relation content, so the sharing is exact, never heuristic).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.relational.columns import add_offset, comparable
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.statistics import SelectivityEstimator, StatisticsCatalog
from repro.relational.stats_cache import (
    ColumnarSample,
    PlanningCache,
    get_planning_cache,
    relation_fingerprint,
)

#: One step's comparison mask is built in blocks of at most this many
#: (combination, sample row) cells, so a step near the work cap costs
#: ~1 MiB of mask at a time instead of one ``work_cap``-cell matrix.
_BLOCK_CELLS = 1 << 20


class SampledJoinEstimator:
    """Joint selectivity of condition sets, by progressively joining samples."""

    def __init__(
        self,
        query: JoinQuery,
        catalog: StatisticsCatalog,
        sample_rows: int = 400,
        work_cap: int = 3_000_000,
        cache: Optional[PlanningCache] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.sample_rows = sample_rows
        self.work_cap = work_cap
        #: Shared cross-query cache; defaults to the process-wide one.
        self.planning_cache = cache if cache is not None else get_planning_cache()
        self._fallback = SelectivityEstimator(catalog)
        self._relation_names = {
            alias: relation.name for alias, relation in query.relations.items()
        }
        self._samples: Dict[str, ColumnarSample] = {}
        self._cache: Dict[FrozenSet[int], float] = {}
        self._alias_fingerprints: Dict[str, tuple] = {}
        self._condition_signatures: Dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def sample_of(self, alias: str) -> ColumnarSample:
        if alias not in self._samples:
            relation = self.query.relations[alias]
            self._samples[alias] = self.planning_cache.columnar_sample(
                relation, alias, self.sample_rows
            )
        return self._samples[alias]

    def selectivity(self, conditions: Sequence[JoinCondition]) -> float:
        """P[a random tuple combination satisfies all ``conditions``].

        The conditions must form a connected set (they do for any prefix
        of a planner path).  Cached by condition-id set within this
        estimator, and by structural signature across estimators.
        """
        if not conditions:
            return 1.0
        key = frozenset(c.condition_id for c in conditions)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        observation = self._sample_join_counts(list(conditions))
        if observation is None:
            # Disconnected set or work-cap overflow: histogram product.
            value = self._fallback.conditions_selectivity(
                conditions, self._relation_names
            )
        else:
            matches, denominator = observation
            if matches:
                value = matches / denominator
            else:
                # Zero sample matches: bound above by "below one sample
                # hit", but never report exactly zero (the true join may
                # be tiny and a zero estimate would make every plan look
                # free).
                fallback = self._fallback.conditions_selectivity(
                    conditions, self._relation_names
                )
                value = max(min(0.5 / denominator, fallback), 0.1 / denominator)
        self._cache[key] = value
        return value

    def expected_rows(self, conditions: Sequence[JoinCondition]) -> float:
        """Expected join output rows at full scale for the condition set."""
        aliases = sorted({a for c in conditions for a in c.aliases})
        rows = self.selectivity(conditions)
        for alias in aliases:
            rows *= self.query.relations[alias].cardinality
        return rows

    # ------------------------------------------------------------------
    # cross-query signature (what a sample-join observation depends on)
    # ------------------------------------------------------------------

    def _alias_fingerprint(self, alias: str) -> tuple:
        fingerprint = self._alias_fingerprints.get(alias)
        if fingerprint is None:
            fingerprint = relation_fingerprint(self.query.relations[alias])
            self._alias_fingerprints[alias] = fingerprint
        return fingerprint

    def _condition_signature(self, condition: JoinCondition) -> tuple:
        signature = self._condition_signatures.get(condition.condition_id)
        if signature is None:
            signature = tuple(
                (
                    (p.left.alias, p.left.attr, p.left.offset),
                    p.op.value,
                    (p.right.alias, p.right.attr, p.right.offset),
                )
                for p in condition.predicates
            )
            self._condition_signatures[condition.condition_id] = signature
        return signature

    def _signature(self, conditions: Sequence[JoinCondition]) -> tuple:
        """Everything the (matches, denominator) counts depend on: the
        participating relations' *content*, the alias wiring, the
        predicate structure, and the sampling parameters."""
        aliases = sorted({a for c in conditions for a in c.aliases})
        alias_fps = tuple((a, self._alias_fingerprint(a)) for a in aliases)
        condition_sigs = frozenset(self._condition_signature(c) for c in conditions)
        return (alias_fps, condition_sigs, self.sample_rows, self.work_cap)

    # ------------------------------------------------------------------

    def _sample_join_counts(
        self, conditions: List[JoinCondition]
    ) -> Optional[Tuple[int, int]]:
        """(matches, denominator) of the progressive sample join, served
        from the shared planning cache when an identical join (same
        relation content, predicates, and sample params) was observed
        before — by this planner or any other in the process."""
        signature = self._signature(conditions)
        hit, observation = self.planning_cache.join_observation(signature)
        if hit:
            return observation
        observation = self._run_sample_join(conditions)
        self.planning_cache.store_join_observation(signature, observation)
        return observation

    def _run_sample_join(
        self, conditions: List[JoinCondition]
    ) -> Optional[Tuple[int, int]]:
        aliases = self._connected_order(conditions)
        if aliases is None:
            return None
        samples = {a: self.sample_of(a) for a in aliases}

        # Partial results are one index vector per bound alias (equal
        # lengths; position i of every vector is one combination).
        work = 0
        partial = {aliases[0]: np.arange(len(samples[aliases[0]]))}
        matches = len(samples[aliases[0]])
        for alias in aliases[1:]:
            if not matches:
                break
            sample = samples[alias]
            # The cap is arithmetic: the scalar loop this replaces charged
            # one unit per probed (combination, row) pair and gave up the
            # moment the running total passed the cap.
            work += matches * len(sample)
            if work > self.work_cap:
                return None
            ready = [
                c
                for c in conditions
                if alias in c.aliases and set(c.aliases) <= {alias, *partial}
            ]
            # Compile the step's predicates once, each oriented so the
            # already-bound side is its left operand: (bound values per
            # combination, comparison, new values per sample row).
            checks: List[tuple] = []
            for condition in ready:
                for predicate in condition.predicates:
                    if predicate.left.alias == alias:
                        new_ref, bound_ref = predicate.left, predicate.right
                        op = predicate.op.swapped()
                    else:
                        new_ref, bound_ref = predicate.right, predicate.left
                        op = predicate.op
                    bound_values, new_values = comparable(
                        add_offset(
                            samples[bound_ref.alias].column(bound_ref.attr),
                            bound_ref.offset,
                        ),
                        add_offset(sample.column(new_ref.attr), new_ref.offset),
                    )
                    bound_values = bound_values[partial[bound_ref.alias]]
                    checks.append((bound_values, op.as_function, new_values))
            last = alias == aliases[-1]
            block = max(1, _BLOCK_CELLS // max(1, len(sample)))
            pairs: List[np.ndarray] = []
            combinations, matches = matches, 0
            for start in range(0, combinations, block):
                stop = min(start + block, combinations)
                mask = np.ones((stop - start, len(sample)), dtype=bool)
                for bound_values, compare, new_values in checks:
                    mask &= compare(bound_values[start:stop, None], new_values[None, :])
                if last:  # only the count is needed: never materialise the pairs
                    matches += int(np.count_nonzero(mask))
                else:
                    pairs.append(np.argwhere(mask) + (start, 0))
            if not last:
                rows, new = np.concatenate(pairs).T
                partial = {a: index[rows] for a, index in partial.items()}
                partial[alias] = new
                matches = len(rows)
        denominator = 1
        for alias in aliases:
            denominator *= max(1, len(samples[alias]))
        return matches, denominator

    def _connected_order(self, conditions: List[JoinCondition]) -> Optional[List[str]]:
        """Alias order where each new alias connects to a bound one."""
        aliases = sorted({a for c in conditions for a in c.aliases})
        if not aliases:
            return None
        order = [aliases[0]]
        remaining = set(aliases[1:])
        while remaining:
            nxt = None
            for alias in sorted(remaining):
                if any(
                    c.touches(alias) and c.other_alias(alias) in order
                    for c in conditions
                ):
                    nxt = alias
                    break
            if nxt is None:
                return None  # disconnected condition set
            order.append(nxt)
            remaining.discard(nxt)
        return order
