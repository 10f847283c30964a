"""The paper's planner: G'JP construction, Topt selection, kP-aware scheduling.

:class:`ThetaJoinPlanner` turns an N-join query into an
:class:`ExecutionPlan`:

1. build the join graph GJ and the pruned join-path graph G'JP
   (Algorithm 2 with Lemmas 1-2), pricing every candidate with the
   Equation 1-6 cost model and Equation 10's kR choice;
2. select the sufficient job set Topt: a portfolio of covers is priced by
   the full group cost C(T) — malleable-task scheduling on the kP
   available units plus the id-based merge tree of Section 4.2 — and the
   best plan wins.  The portfolio contains both *independent* covers
   (jobs over base relations, merged afterwards) and *pipelined* covers
   (a strong multi-way seed job whose output feeds the remaining joins —
   the dependency-related job sets Section 1 admits);
3. emit an :class:`ExecutionPlan` with per-job reduce-task counts
   (Equation 10) and unit allotments.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.cost_model import MRJCostModel
from repro.core.costing import CandidateJobCosting, JobBlueprint
from repro.core.group_cost import group_cost_s
from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import JoinPathGraph, build_join_path_graph
from repro.core.plan import ExecutionPlan, InputRef, PlannedJob
from repro.core.plan_selector import candidate_covers
from repro.core.scheduler import MalleableJob, MalleableScheduler
from repro.errors import PlanningError
from repro.joins.records import composite_width
from repro.mapreduce.config import ClusterConfig
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.statistics import StatisticsCatalog
from repro.relational.stats_cache import PlanningCache, get_planning_cache


def default_unit_options(total_units: int) -> List[int]:
    """Allotment choices offered to the scheduler: powers of two plus kP."""
    options = []
    u = 1
    while u <= total_units:
        options.append(u)
        u *= 2
    if options[-1] != total_units:
        options.append(total_units)
    return options


class PlanOption:
    """One fully-specified way to evaluate the query, with its estimate."""

    def __init__(self, jobs: List[PlannedJob], est_completion_s: float, kind: str):
        self.jobs = jobs
        self.est_completion_s = est_completion_s
        self.kind = kind


class ThetaJoinPlanner:
    """End-to-end planner for multi-way theta-join queries (the paper's method)."""

    method = "ours"

    def __init__(
        self,
        config: ClusterConfig,
        catalog: Optional[StatisticsCatalog] = None,
        planning_cache: Optional[PlanningCache] = None,
    ) -> None:
        self.config = config
        self.catalog = catalog or StatisticsCatalog()
        #: Cross-query statistics cache (samples, stats, join-sample
        #: counts); the process-wide default is shared by every planner
        #: instance, so repeated planning of identical data is ~free.
        self.planning_cache = planning_cache or get_planning_cache()
        self.cost_model = MRJCostModel.for_cluster(config)

    # ------------------------------------------------------------------

    def plan(self, query: JoinQuery) -> ExecutionPlan:
        self._ensure_statistics(query)
        graph = JoinGraph.from_query(query)
        costing = CandidateJobCosting(
            query,
            graph,
            self.catalog,
            self.cost_model,
            total_units=self.config.total_units,
            planning_cache=self.planning_cache,
        )
        gjp = build_join_path_graph(graph, costing)

        options: List[PlanOption] = []
        for cover in candidate_covers(gjp):
            options.append(self._independent_option(query, costing, cover))
        options.extend(self._pipelined_options(query, costing, gjp))
        if not options:
            raise PlanningError(f"no sufficient plan found for {query.name!r}")
        best = min(options, key=lambda option: option.est_completion_s)

        return ExecutionPlan(
            name=f"{query.name}-ours",
            method=self.method,
            query_name=query.name,
            jobs=best.jobs,
            total_units=self.config.total_units,
            est_makespan_s=best.est_completion_s,
            notes={
                "gjp_candidates": len(gjp),
                "gjp_enumerated": gjp.enumerated,
                "gjp_pruned": gjp.pruned,
                "options_tried": len(options),
                "chosen_kind": best.kind,
            },
        )

    # ------------------------------------------------------------------
    # independent covers (jobs over base relations + merge tree)
    # ------------------------------------------------------------------

    def _independent_option(
        self, query: JoinQuery, costing: CandidateJobCosting, cover
    ) -> PlanOption:
        blueprints = [costing.blueprint(candidate.labels) for candidate in cover]
        schedule = self._schedule(blueprints)
        completion = self._estimate_group_cost(query, blueprints, schedule, costing)
        jobs: List[PlannedJob] = []
        for blueprint in blueprints:
            job_id = self._job_id(blueprint)
            placed = schedule.job(job_id)
            jobs.append(
                PlannedJob(
                    job_id=job_id,
                    strategy=blueprint.strategy,
                    inputs=tuple(
                        InputRef.base(alias) for alias in blueprint.dim_aliases
                    ),
                    condition_ids=blueprint.path,
                    num_reducers=blueprint.num_reducers,
                    units=placed.units,
                    partition_bits=blueprint.partition_bits,
                    est_duration_s=placed.duration_s,
                    est_start_s=placed.start_s,
                )
            )
        return PlanOption(jobs, completion, kind=f"independent[{len(jobs)}]")

    def _ensure_statistics(self, query: JoinQuery) -> None:
        for relation in query.relations.values():
            if relation.name not in self.catalog:
                self.catalog.add_relation(relation, cache=self.planning_cache)

    def _job_id(self, blueprint: JobBlueprint) -> str:
        return "j" + "_".join(str(cid) for cid in sorted(blueprint.labels))

    def _schedule(self, blueprints: List[JobBlueprint]):
        unit_options = default_unit_options(self.config.total_units)
        malleable: List[MalleableJob] = []
        for blueprint in blueprints:
            profile = blueprint.profile
            times: Dict[int, float] = {}
            for units in unit_options:
                times[units] = self.cost_model.estimate_seconds(
                    profile, map_units=units, reduce_units=units
                )
            malleable.append(MalleableJob(self._job_id(blueprint), times))
        scheduler = MalleableScheduler(self.config.total_units)
        return scheduler.schedule(malleable)

    def _estimate_group_cost(
        self,
        query: JoinQuery,
        blueprints: List[JobBlueprint],
        schedule,
        costing: CandidateJobCosting,
    ) -> float:
        if len(blueprints) == 1:
            return schedule.makespan_s

        def merged_rows(aliases: FrozenSet[str]) -> float:
            rows = 1.0
            for alias in aliases:
                rows *= query.relations[alias].cardinality
            return rows * costing.joint.selectivity(
                query.conditions_among(aliases)
            )

        ready = {
            self._job_id(bp): schedule.job(self._job_id(bp)).end_s
            for bp in blueprints
        }
        aliases = {
            self._job_id(bp): frozenset(bp.dim_aliases) for bp in blueprints
        }
        rows = {self._job_id(bp): bp.output_rows for bp in blueprints}
        return group_cost_s(
            ready,
            aliases,
            rows,
            merged_rows,
            disk_bytes_s=self.config.disk_read_bytes_s,
        )

    # ------------------------------------------------------------------
    # pipelined covers (seed multi-way job -> per-relation extension steps)
    # ------------------------------------------------------------------

    def _pipelined_options(
        self, query: JoinQuery, costing: CandidateJobCosting, gjp: JoinPathGraph
    ) -> List[PlanOption]:
        """Seed with a strong multi-way candidate, then extend one relation
        at a time against the running intermediate."""
        options: List[PlanOption] = []
        seeds = self._closed_seeds(query, costing, gjp)
        for seed in seeds[:3]:
            option = self._pipeline_from_seed(query, costing, seed)
            if option is not None:
                options.append(option)
        return options

    def _closed_seeds(
        self, query: JoinQuery, costing: CandidateJobCosting, gjp: JoinPathGraph
    ) -> List[JobBlueprint]:
        """Seed candidates: connected condition subsets *closed* over their
        alias set (every condition among the seed's relations is evaluated
        by the seed), priced directly.

        Enumerated independently of G'JP's Lemma-1 pruning: a seed that
        looks substitutable in isolation can still anchor the best
        dependent plan because its tiny output makes the remaining joins
        nearly free.
        """
        ids = [c.condition_id for c in query.conditions]
        if len(ids) > 12:
            # Fall back to the (already pruned) candidate pool for very
            # large queries; 2^m enumeration would be wasteful.
            subsets = [tuple(sorted(c.labels)) for c in gjp.candidates]
        else:
            subsets = []
            graph = costing.graph
            for mask in range(1, 1 << len(ids)):
                subset = tuple(
                    ids[i] for i in range(len(ids)) if (mask >> i) & 1
                )
                if not graph.edges_form_connected_subgraph(subset):
                    continue
                aliases = {
                    a
                    for cid in subset
                    for a in query.condition(cid).aliases
                }
                inside = {
                    c.condition_id for c in query.conditions_among(aliases)
                }
                if inside != set(subset):
                    continue
                subsets.append(subset)

        seeds: List[JobBlueprint] = []
        seen: Set[FrozenSet[int]] = set()
        for subset in subsets:
            labels = frozenset(subset)
            if labels in seen:
                continue
            seen.add(labels)
            seeds.append(costing.blueprint_for_labels(subset))
        # Prefer seeds that cover many conditions cheaply.
        seeds.sort(key=lambda bp: (bp.est_time_s / len(bp.labels), -len(bp.labels)))
        return seeds

    def _pipeline_from_seed(
        self, query: JoinQuery, costing: CandidateJobCosting, seed: JobBlueprint
    ) -> Optional[PlanOption]:
        units = self.config.total_units
        jobs: List[PlannedJob] = [
            PlannedJob(
                job_id="p0",
                strategy=seed.strategy,
                inputs=tuple(InputRef.base(a) for a in seed.dim_aliases),
                condition_ids=seed.path,
                num_reducers=seed.num_reducers,
                units=units,
                partition_bits=seed.partition_bits,
                est_duration_s=seed.est_time_s,
            )
        ]
        total_time = seed.est_time_s
        bound: Set[str] = set(seed.dim_aliases)
        assigned: Set[int] = set(seed.labels)
        inter_rows = max(1.0, seed.output_rows)
        schemas = {a: query.relations[a].schema for a in query.aliases}
        previous_id = "p0"
        step = 0

        remaining_aliases = [a for a in query.aliases if a not in bound]
        while remaining_aliases:
            # Next alias: connects to bound, most conditions become ready.
            best_alias = None
            best_ready: List[JoinCondition] = []
            for alias in remaining_aliases:
                ready = [
                    c
                    for c in query.conditions
                    if c.condition_id not in assigned
                    and set(c.aliases) <= bound | {alias}
                    and c.touches(alias)
                ]
                if ready and (best_alias is None or len(ready) > len(best_ready)):
                    best_alias = alias
                    best_ready = ready
            if best_alias is None:
                return None  # cannot extend connectedly
            step += 1
            bound.add(best_alias)
            assigned.update(c.condition_id for c in best_ready)
            remaining_aliases.remove(best_alias)

            # Any still-unassigned condition fully inside the new bound set
            # rides along as a reducer-side filter.
            riders = [
                c
                for c in query.conditions
                if c.condition_id not in assigned and set(c.aliases) <= bound
            ]
            step_conditions = best_ready + riders
            assigned.update(c.condition_id for c in riders)

            next_rows = max(
                0.0,
                costing.joint.selectivity(
                    [c for c in query.conditions if c.condition_id in assigned]
                )
                * _alias_product(query, bound),
            )
            inter_width = composite_width(
                schemas, sorted(bound - {best_alias})
            )
            duration, strategy, reducers = costing.pairwise_step_cost(
                left_rows=inter_rows,
                left_width=inter_width,
                new_alias=best_alias,
                conditions=step_conditions,
                output_rows=next_rows,
            )
            jobs.append(
                PlannedJob(
                    job_id=f"p{step}",
                    strategy=strategy,
                    inputs=(InputRef.job(previous_id), InputRef.base(best_alias)),
                    condition_ids=tuple(c.condition_id for c in step_conditions),
                    num_reducers=reducers,
                    units=units,
                    depends_on=(previous_id,),
                    est_duration_s=duration,
                )
            )
            total_time += duration
            inter_rows = max(1.0, next_rows)
            previous_id = f"p{step}"

        if len(assigned) != len(query.conditions):
            return None
        return PlanOption(jobs, total_time, kind=f"pipelined[{len(jobs)}]")


def _alias_product(query: JoinQuery, aliases) -> float:
    product = 1.0
    for alias in aliases:
        product *= query.relations[alias].cardinality
    return product
