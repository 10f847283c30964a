"""Costing candidate MapReduce jobs: w(e') and s(e') for G'JP edges.

For every no-edge-repeating path the join-path-graph builder proposes,
this module decides the physical strategy (hypercube theta-join, or a
plain repartition equi-join when the path is a single pure-equality
condition), picks the reduce-task count kR by minimising Equation 10's
Delta, builds the analytic :class:`JobProfile`, and prices it with the
Equation 1-6 cost model.  The resulting :class:`JobBlueprint` is kept so
the planner and executor can materialise exactly the job that was priced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.cost_model import JobProfile, MRJCostModel
from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import CandidateCost
from repro.core.job_profiles import equi_profile, equichain_profile, hypercube_profile
from repro.core.partitioner import HypercubePartitioner, get_partitioner
from repro.core.reducer_selection import candidate_reducer_counts, choose_reducer_count
from repro.core.plan import STRATEGY_EQUI, STRATEGY_EQUICHAIN, STRATEGY_HYPERCUBE
from repro.errors import PlanningError
from repro.relational.predicates import AttrRef
from repro.relational.query import JoinQuery
from repro.relational.sampling import SampledJoinEstimator
from repro.relational.statistics import ColumnStats, StatisticsCatalog
from repro.relational.stats_cache import PlanningCache


@dataclass(frozen=True)
class JobBlueprint:
    """A fully-priced candidate MapReduce job, ready to materialise."""

    labels: FrozenSet[int]
    path: Tuple[int, ...]
    #: Unique aliases in path-visit order — the hypercube dimension order.
    dim_aliases: Tuple[str, ...]
    strategy: str
    num_reducers: int
    partition_bits: int
    profile: JobProfile
    est_time_s: float
    #: Expected output rows (used for merge cost estimation).
    output_rows: float

    @property
    def cost(self) -> CandidateCost:
        return CandidateCost(time_s=self.est_time_s, reducers=self.num_reducers)


class CandidateJobCosting:
    """Evaluator handed to :func:`build_join_path_graph` (Alg. 2's w and s)."""

    def __init__(
        self,
        query: JoinQuery,
        graph: JoinGraph,
        catalog: StatisticsCatalog,
        cost_model: MRJCostModel,
        total_units: int,
        planning_cache: Optional[PlanningCache] = None,
    ) -> None:
        if total_units < 1:
            raise PlanningError("total_units must be >= 1")
        self.query = query
        self.graph = graph
        self.catalog = catalog
        self.cost_model = cost_model
        self.total_units = total_units
        #: Joint (correlation-aware) cardinalities from sample joins — the
        #: paper's upload-time sampling statistics, shared across planners
        #: through the process-wide :class:`PlanningCache` by default.
        self.joint = SampledJoinEstimator(query, catalog, cache=planning_cache)
        self._blueprints: Dict[FrozenSet[int], JobBlueprint] = {}

    # -- evaluator protocol ------------------------------------------------

    def __call__(self, path: Tuple[int, ...]) -> CandidateCost:
        return self.blueprint_for_path(path).cost

    def blueprint(self, labels: FrozenSet[int]) -> JobBlueprint:
        try:
            return self._blueprints[frozenset(labels)]
        except KeyError:
            raise PlanningError(f"no blueprint cached for labels {set(labels)}") from None

    # -- construction ------------------------------------------------------

    def blueprint_for_path(self, path: Tuple[int, ...]) -> JobBlueprint:
        labels = frozenset(path)
        cached = self._blueprints.get(labels)
        if cached is not None:
            return cached
        dim_aliases = self._dims_in_visit_order(path)
        return self._build_blueprint(path, dim_aliases)

    def blueprint_for_labels(self, condition_ids) -> JobBlueprint:
        """Blueprint for an arbitrary connected condition set (not
        necessarily a path) — used by the planner's pipelined seeds."""
        labels = frozenset(condition_ids)
        cached = self._blueprints.get(labels)
        if cached is not None:
            return cached
        ordered = tuple(sorted(labels))
        conditions = [self.query.condition(cid) for cid in ordered]
        dim_aliases = self._connected_alias_order(conditions)
        return self._build_blueprint(ordered, dim_aliases)

    def _build_blueprint(
        self, path: Tuple[int, ...], dim_aliases: Tuple[str, ...]
    ) -> JobBlueprint:
        conditions = [self.query.condition(cid) for cid in path]
        single = conditions[0] if len(conditions) == 1 else None

        options = []
        if single is not None and single.is_pure_equi:
            options.append(self._equi_blueprint(path, dim_aliases, single))
        else:
            chain = self._equichain_blueprint(path, dim_aliases, conditions)
            if chain is not None:
                options.append(chain)
            options.append(self._hypercube_blueprint(path, dim_aliases))
        blueprint = min(options, key=lambda bp: bp.est_time_s)
        self._blueprints[frozenset(path)] = blueprint
        return blueprint

    def _connected_alias_order(self, conditions) -> Tuple[str, ...]:
        aliases = sorted({a for c in conditions for a in c.aliases})
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
                raise PlanningError(
                    f"condition set {sorted(c.condition_id for c in conditions)} "
                    "is not connected"
                )
            order.append(nxt)
            remaining.discard(nxt)
        return tuple(order)

    def _dims_in_visit_order(self, path: Tuple[int, ...]) -> Tuple[str, ...]:
        """Vertex visit order of the path; repeated vertices appear once."""
        endpoints = [self.graph.endpoints(cid) for cid in path]
        if len(path) == 1:
            sequence = list(endpoints[0])
        else:
            first_a, first_b = endpoints[0]
            shared = set(endpoints[0]) & set(endpoints[1])
            if not shared:
                raise PlanningError(f"path {path} is not edge-connected")
            start = first_a if first_b in shared else first_b
            sequence = [start]
            current = first_b if start == first_a else first_a
            sequence.append(current)
            for a, b in endpoints[1:]:
                nxt = b if current == a else a
                sequence.append(nxt)
                current = nxt
        seen: List[str] = []
        for alias in sequence:
            if alias not in seen:
                seen.append(alias)
        return tuple(seen)

    # -- strategies ----------------------------------------------------------

    def _hypercube_blueprint(
        self, path: Tuple[int, ...], dim_aliases: Tuple[str, ...]
    ) -> JobBlueprint:
        cards = [self.query.relations[a].cardinality for a in dim_aliases]
        widths = [
            16 + self.query.relations[a].schema.row_width for a in dim_aliases
        ]
        conditions = [self.query.condition(cid) for cid in path]

        choice = choose_reducer_count(cards, self.total_units)
        # Shared LRU instance: the sweep above already built this exact
        # partitioner, so the summary is precomputed.
        partitioner = get_partitioner(
            HypercubePartitioner, tuple(cards), choice.num_reducers
        )
        summary = partitioner.summary()

        cumulative = self._cumulative_rows(dim_aliases, conditions)
        step_sels = self._step_sels_from_cumulative(cumulative, cards)
        output_rows = cumulative[-1]
        output_width = sum(widths)

        profile = hypercube_profile(
            name=f"hc-{sorted(path)}",
            cardinalities=cards,
            record_widths=widths,
            summary=summary,
            step_selectivities=step_sels,
            output_rows=output_rows,
            output_width=output_width,
        )
        est = self.cost_model.estimate_seconds(
            profile, map_units=self.total_units, reduce_units=self.total_units
        )
        return JobBlueprint(
            labels=frozenset(path),
            path=path,
            dim_aliases=dim_aliases,
            strategy=STRATEGY_HYPERCUBE,
            num_reducers=summary.num_components,
            partition_bits=partitioner.bits,
            profile=profile,
            est_time_s=est,
            output_rows=output_rows,
        )

    def _equi_blueprint(
        self, path: Tuple[int, ...], dim_aliases: Tuple[str, ...], condition
    ) -> JobBlueprint:
        left_alias, right_alias = condition.aliases
        left_rel = self.query.relations[left_alias]
        right_rel = self.query.relations[right_alias]
        left = (left_rel.cardinality, 16 + left_rel.schema.row_width)
        right = (right_rel.cardinality, 16 + right_rel.schema.row_width)

        # A pure-equality condition: every predicate is a key component.
        key_distinct, hot_input, hot_output = self._key_statistics(
            condition.predicates
        )
        sel = self.joint.selectivity([condition])
        output_rows = left[0] * right[0] * sel
        output_width = left[1] + right[1]
        # Share of output pairs concentrated on the hottest key.
        hot_output_fraction = min(1.0, hot_output / max(sel, 1e-12))

        est, num_reducers, profile = self._cheapest_reducer_count(
            lambda k: equi_profile(
                name=f"eq-{sorted(path)}",
                left=left,
                right=right,
                num_reducers=k,
                key_distinct=key_distinct,
                output_rows=output_rows,
                output_width=output_width,
                hot_input_fraction=hot_input,
                hot_output_fraction=hot_output_fraction,
            )
        )
        return JobBlueprint(
            labels=frozenset(path),
            path=path,
            dim_aliases=dim_aliases,
            strategy=STRATEGY_EQUI,
            num_reducers=num_reducers,
            partition_bits=0,
            profile=profile,
            est_time_s=est,
            output_rows=output_rows,
        )

    def _equichain_blueprint(
        self, path: Tuple[int, ...], dim_aliases: Tuple[str, ...], conditions
    ) -> Optional[JobBlueprint]:
        """Key-class co-partitioned multi-join, when a single class exists.

        When every dimension of the path is reachable through one equality
        class, partitioning by that key is the degenerate perfect
        partition: zero duplication, at the price of key-bounded reducer
        parallelism.  The planner prices it against the Hilbert hypercube
        and takes the cheaper.
        """
        from repro.joins.jobs import find_single_key_class

        alias_groups = [(alias,) for alias in dim_aliases]
        key_refs = find_single_key_class(conditions, alias_groups)
        if key_refs is None:
            return None

        cards = [self.query.relations[a].cardinality for a in dim_aliases]
        widths = [
            16 + self.query.relations[a].schema.row_width for a in dim_aliases
        ]
        key_stats = [self._column_stats(ref) for ref in key_refs.values()]
        key_distinct = min(stats.distinct for stats in key_stats)
        hot_input = max(stats.max_frequency for stats in key_stats)

        cumulative = self._cumulative_rows(dim_aliases, conditions)
        output_rows = cumulative[-1]
        output_width = sum(widths)

        est, num_reducers, profile = self._cheapest_reducer_count(
            lambda k: equichain_profile(
                name=f"ec-{sorted(path)}",
                cardinalities=cards,
                record_widths=widths,
                key_distinct=float(key_distinct),
                cumulative_intermediates=cumulative,
                output_rows=output_rows,
                output_width=output_width,
                num_reducers=k,
                hot_input_fraction=hot_input,
                hot_output_fraction=hot_input,
            )
        )
        return JobBlueprint(
            labels=frozenset(path),
            path=path,
            dim_aliases=dim_aliases,
            strategy=STRATEGY_EQUICHAIN,
            num_reducers=num_reducers,
            partition_bits=0,
            profile=profile,
            est_time_s=est,
            output_rows=output_rows,
        )

    # -- pipeline step pricing (used by the planner's dependent plans) -------

    def pairwise_step_cost(
        self,
        left_rows: float,
        left_width: int,
        new_alias: str,
        conditions: Sequence,
        output_rows: float,
    ) -> Tuple[float, str, int]:
        """Price joining an intermediate with one base relation.

        Chooses between a repartition equi-join (when a usable equality
        key crosses the boundary) and a 1-Bucket-style 2-dim hypercube,
        with the same skew-aware statistics as the base-job blueprints.
        Returns ``(seconds, strategy, reduce_tasks)``.
        """
        from repro.core.plan import STRATEGY_ONEBUCKET

        relation = self.query.relations[new_alias]
        left = (max(1, int(round(left_rows))), left_width)
        right = (relation.cardinality, 16 + relation.schema.row_width)
        output_width = left_width + right[1]

        key_predicates = [
            p
            for c in conditions
            for p in c.predicates
            if p.is_key and new_alias in p.aliases
        ]
        if key_predicates:
            key_distinct, hot_input, hot_pair = self._key_statistics(key_predicates)
            pair_sel = output_rows / max(1.0, left[0] * right[0])
            hot_output_fraction = min(1.0, hot_pair / max(pair_sel, 1e-12))
            seconds, num_reducers, _ = self._cheapest_reducer_count(
                lambda k: equi_profile(
                    name=f"step-{new_alias}",
                    left=left,
                    right=right,
                    num_reducers=k,
                    key_distinct=key_distinct,
                    output_rows=output_rows,
                    output_width=output_width,
                    hot_input_fraction=hot_input,
                    hot_output_fraction=hot_output_fraction,
                )
            )
            return seconds, STRATEGY_EQUI, num_reducers

        cards = [left[0], right[0]]
        choice = choose_reducer_count(cards, self.total_units)
        profile = hypercube_profile(
            name=f"step-{new_alias}",
            cardinalities=cards,
            record_widths=[left[1], right[1]],
            summary=choice.summary,
            step_selectivities=[
                1.0,
                min(1.0, output_rows / max(1.0, left[0] * right[0])),
            ],
            output_rows=output_rows,
            output_width=output_width,
        )
        seconds = self.cost_model.estimate_seconds(
            profile, self.total_units, self.total_units
        )
        return seconds, STRATEGY_ONEBUCKET, choice.num_reducers

    # -- helpers -------------------------------------------------------------

    def _cheapest_reducer_count(
        self, profile_for: Callable[[int], JobProfile]
    ) -> Tuple[float, int, Optional[JobProfile]]:
        """Sweep the candidate kR values, pricing ``profile_for(kR)`` with
        the Equation 1-6 model; ``(seconds, kR, profile)`` of the first
        strictly cheapest."""
        best_time, best_k, best_profile = float("inf"), 1, None
        for k in candidate_reducer_counts(self.total_units):
            profile = profile_for(k)
            t = self.cost_model.estimate_seconds(
                profile, map_units=self.total_units, reduce_units=self.total_units
            )
            if t < best_time:
                best_time, best_k, best_profile = t, k, profile
        return best_time, best_k, best_profile

    def _column_stats(self, ref: AttrRef) -> ColumnStats:
        return self.catalog.get(self.query.relations[ref.alias].name).column(ref.attr)

    def _key_statistics(self, key_predicates) -> Tuple[float, float, float]:
        """``(key_distinct, hot_input, hot_pair)`` of an equality key.

        For a composite key the hottest group's share multiplies across
        the key components (the hot (bsc, d) pair is the hot bsc value on
        the hot day), so every key predicate contributes one factor to
        each; every factor is symmetric in the predicate's two sides.
        """
        key_distinct = hot_input = hot_pair = 1.0
        for predicate in key_predicates:
            left = self._column_stats(predicate.left)
            right = self._column_stats(predicate.right)
            key_distinct *= max(1.0, min(left.distinct, right.distinct))
            hot_input *= max(left.max_frequency, right.max_frequency)
            hot_pair *= left.max_frequency * right.max_frequency
        return key_distinct, hot_input, hot_pair

    def _cumulative_rows(
        self, dim_aliases: Tuple[str, ...], conditions
    ) -> List[float]:
        """Expected partial-result rows after binding each dimension.

        Uses the sampling-based joint estimator, so cross-condition
        correlations (key chains, day windows) are priced correctly.
        """
        rows: List[float] = []
        bound: set = set()
        product = 1.0
        for alias in dim_aliases:
            bound.add(alias)
            product *= self.query.relations[alias].cardinality
            ready = [c for c in conditions if set(c.aliases) <= bound]
            rows.append(product * self.joint.selectivity(ready))
        return rows

    @staticmethod
    def _step_sels_from_cumulative(
        cumulative: List[float], cards: List[int]
    ) -> List[float]:
        """Per-step multiplicative selectivities from cumulative row counts."""
        sels: List[float] = []
        previous = 1.0
        for index, rows in enumerate(cumulative):
            expected_unfiltered = previous * cards[index]
            sel = rows / expected_unfiltered if expected_unfiltered > 0 else 0.0
            sels.append(max(1e-12, min(1.0, sel)))
            previous = max(rows, 1e-12)
        return sels
