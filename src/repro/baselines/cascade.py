"""Shared cascade (left-deep pair-wise) planning used by all baselines.

Hive, Pig, and YSmart all compile a multi-way join into a *sequence* of
pair-wise join MapReduce jobs in the order the query lists its relations
(the translation the paper compares against).  Each step joins the
running intermediate with the next relation; every theta condition is
applied at the first step where both of its endpoints are bound.

The baselines differ only in:

* how a pair-wise *theta* step is executed (broadcast cross-join for
  Hive/Pig, the 1-Bucket-Theta-style 2-dim partitioning [25] for YSmart);
* materialisation overheads (Pig writes intermediates with full dfs
  replication and pays extra per-job latency);
* nothing else — all run on the identical simulated substrate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.plan import (
    STRATEGY_BROADCAST,
    STRATEGY_EQUI,
    ExecutionPlan,
    InputRef,
    PlannedJob,
)
from repro.errors import PlanningError
from repro.mapreduce.config import ClusterConfig
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery


def written_alias_order(query: JoinQuery, key_continuity: bool = False) -> List[str]:
    """Cascade join order: equality joins first, theta joins last.

    Hive-era translators (and the hand-written Hive/Pig scripts the paper
    benchmarks) place the selective equality joins early so intermediates
    stay small, leaving inequality-only joins for the end.  Ties follow
    FROM-clause order.  The first relation is the written first one that
    participates in an equality join, if any.

    With ``key_continuity`` (YSmart's planning), among equality
    candidates one whose join key continues the previous step's key
    equivalence class is preferred — this is what lines up the
    transit-correlated jobs YSmart later merges.
    """
    written = list(query.relations)

    def connectable(alias: str, bound: List[str]) -> List[JoinCondition]:
        return [
            c
            for c in query.conditions
            if c.touches(alias) and c.other_alias(alias) in bound
        ]

    def key_attrs(conditions: List[JoinCondition]):
        return {
            (ref.alias, ref.attr)
            for c in conditions
            for p in c.predicates
            if p.is_key
            for ref in (p.left, p.right)
        }

    # Seed: first written alias on an equality edge, else first written.
    seed = written[0]
    for alias in written:
        if any(
            has_usable_equi_key([c]) for c in query.conditions if c.touches(alias)
        ):
            seed = alias
            break

    order = [seed]
    remaining = [a for a in written if a != seed]
    previous_keys: set = set()
    while remaining:
        continuity_pick: Optional[str] = None
        equi_pick: Optional[str] = None
        theta_pick: Optional[str] = None
        for alias in remaining:
            crossing = connectable(alias, order)
            if not crossing:
                continue
            if has_usable_equi_key(crossing):
                equi_pick = equi_pick or alias
                # Continuity only helps when the step is *pure* equality:
                # pulling a theta-residual step forward widens every later
                # intermediate, which costs more than the merge saves.
                pure = all(c.is_pure_equi for c in crossing)
                if key_continuity and pure and continuity_pick is None:
                    shared = {
                        (r, attr)
                        for r, attr in key_attrs(crossing)
                        if (r, attr) in previous_keys
                    }
                    if shared:
                        continuity_pick = alias
            else:
                theta_pick = theta_pick or alias
        picked = continuity_pick or equi_pick or theta_pick
        if picked is None:
            raise PlanningError(
                f"query {query.name!r}: no connectable alias among {remaining}"
            )
        previous_keys = key_attrs(connectable(picked, order))
        order.append(picked)
        remaining.remove(picked)
    return order


def has_usable_equi_key(conditions: Sequence[JoinCondition]) -> bool:
    """True when some condition carries a zero-offset equality predicate."""
    return any(p.is_key for c in conditions for p in c.predicates)


class CascadePlanner:
    """Base class for the Hive / Pig / YSmart planner models."""

    method = "cascade"
    #: Strategy used when a step has no usable equality key.
    theta_strategy = STRATEGY_BROADCAST
    #: Replication factor applied to intermediate job outputs.
    intermediate_replication = 1
    #: Extra fixed latency added to every job (compilation, extra passes).
    extra_startup_s = 0.0
    #: YSmart orders steps for key continuity to enable transit merging.
    prefer_key_continuity = False

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config

    def plan(self, query: JoinQuery) -> ExecutionPlan:
        order = written_alias_order(query, self.prefer_key_continuity)
        units = self.config.total_units
        reducers = self._reducer_count()

        jobs: List[PlannedJob] = []
        assigned: Set[int] = set()
        bound: Set[str] = {order[0]}
        previous_ref = InputRef.base(order[0])
        previous_job: Optional[str] = None

        for step, alias in enumerate(order[1:], start=1):
            bound.add(alias)
            step_conditions = [
                c
                for c in query.conditions
                if c.condition_id not in assigned and set(c.aliases) <= bound
            ]
            if not step_conditions:
                raise PlanningError(
                    f"query {query.name!r}: step {step} binds {alias!r} with "
                    "no join condition (cross join not modelled)"
                )
            assigned.update(c.condition_id for c in step_conditions)
            strategy = (
                STRATEGY_EQUI
                if has_usable_equi_key(step_conditions)
                else self.theta_strategy
            )
            job_id = f"s{step}-{alias}"
            is_last = step == len(order) - 1
            jobs.append(
                PlannedJob(
                    job_id=job_id,
                    strategy=strategy,
                    inputs=(previous_ref, InputRef.base(alias)),
                    condition_ids=tuple(
                        c.condition_id for c in step_conditions
                    ),
                    num_reducers=reducers,
                    units=units,
                    depends_on=(previous_job,) if previous_job else (),
                    output_replication=(
                        1 if is_last else self.intermediate_replication
                    ),
                    extra_startup_s=self.extra_startup_s,
                )
            )
            previous_ref = InputRef.job(job_id)
            previous_job = job_id

        return ExecutionPlan(
            name=f"{query.name}-{self.method}",
            method=self.method,
            query_name=query.name,
            jobs=jobs,
            total_units=units,
            notes={"alias_order": order},
        )

    def _reducer_count(self) -> int:
        """Hive-era systems default to "as many reduce tasks as possible"."""
        return self.config.total_units
