"""Merge planning and the group cost C(T) (Section 4.2, Figure 4).

When a query is evaluated by several MapReduce jobs, their outputs are
partial join results over overlapping relation sets.  Two partial results
that share a relation merge on the shared relation's tuple ids — an
id-only operation the paper notes "can be done very efficiently".

This module plans the merge tree greedily (smallest pair of mergeable
results first), estimates each merge's cost from the expected row counts,
and computes the total time C(T) of a scheduled job set followed by its
merges — merges start as soon as both of their inputs are available, so
they overlap with still-running jobs exactly as in Figure 4's example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PlanningError

#: Bytes per id entry in a merge (alias tag + global id), Section 4.2's
#: "only output keys or data IDs involved".
MERGE_ID_WIDTH = 16
#: Fixed latency of launching one merge step.
MERGE_STARTUP_S = 0.5


@dataclass(frozen=True)
class MergeInput:
    """One mergeable partial result: where it comes from and what it holds."""

    source_id: str
    aliases: FrozenSet[str]
    rows: float
    ready_at_s: float


@dataclass(frozen=True)
class MergeStep:
    """One planned merge of two partial results."""

    left_id: str
    right_id: str
    out_id: str
    aliases: FrozenSet[str]
    rows: float
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class MergePlan:
    """The full merge tree plus its timing."""

    steps: List[MergeStep]
    final_id: str
    completion_s: float


def merge_duration_s(
    left_rows: float, right_rows: float, out_rows: float, disk_bytes_s: float
) -> float:
    """Id-only merge cost: read both id lists, hash, write the merged ids."""
    volume = (left_rows + right_rows + out_rows) * MERGE_ID_WIDTH
    return MERGE_STARTUP_S + volume / disk_bytes_s


def plan_merges(
    inputs: Sequence[MergeInput],
    merged_rows_estimate: Callable[[FrozenSet[str]], float],
    disk_bytes_s: float,
) -> MergePlan:
    """Greedy merge tree over the partial results.

    At every step the cheapest mergeable pair (smallest combined rows,
    sharing at least one alias) is merged.  Merges start when both inputs
    are ready, so early jobs' outputs merge while later jobs still run.
    """
    if not inputs:
        raise PlanningError("nothing to merge")
    pool: List[MergeInput] = list(inputs)
    steps: List[MergeStep] = []
    counter = 0
    while len(pool) > 1:
        best_pair: Optional[Tuple[int, int]] = None
        best_rows = float("inf")
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if not (pool[i].aliases & pool[j].aliases):
                    continue
                combined = pool[i].rows + pool[j].rows
                if combined < best_rows:
                    best_rows = combined
                    best_pair = (i, j)
        if best_pair is None:
            raise PlanningError(
                "partial results do not share relations; the job set cannot "
                "be merged (the query graph would have to be disconnected)"
            )
        i, j = best_pair
        left, right = pool[i], pool[j]
        aliases = left.aliases | right.aliases
        rows = merged_rows_estimate(aliases)
        start = max(left.ready_at_s, right.ready_at_s)
        duration = merge_duration_s(left.rows, right.rows, rows, disk_bytes_s)
        counter += 1
        out_id = f"merge-{counter}"
        steps.append(
            MergeStep(
                left_id=left.source_id,
                right_id=right.source_id,
                out_id=out_id,
                aliases=frozenset(aliases),
                rows=rows,
                start_s=start,
                duration_s=duration,
            )
        )
        merged = MergeInput(
            source_id=out_id,
            aliases=frozenset(aliases),
            rows=rows,
            ready_at_s=start + duration,
        )
        pool = [p for k, p in enumerate(pool) if k not in (i, j)] + [merged]
    final = pool[0]
    return MergePlan(
        steps=steps, final_id=final.source_id, completion_s=final.ready_at_s
    )


def group_cost_s(
    job_ready_times: Mapping[str, float],
    job_aliases: Mapping[str, FrozenSet[str]],
    job_rows: Mapping[str, float],
    merged_rows_estimate: Callable[[FrozenSet[str]], float],
    disk_bytes_s: float,
) -> float:
    """C(T): completion time of the whole job group including merges.

    ``job_ready_times`` are the scheduled job end times; a single job needs
    no merge, so C(T) is simply its completion time.
    """
    if not job_ready_times:
        raise PlanningError("empty job group")
    if len(job_ready_times) == 1:
        return next(iter(job_ready_times.values()))
    inputs = [
        MergeInput(
            source_id=job_id,
            aliases=job_aliases[job_id],
            rows=job_rows[job_id],
            ready_at_s=ready,
        )
        for job_id, ready in job_ready_times.items()
    ]
    plan = plan_merges(inputs, merged_rows_estimate, disk_bytes_s)
    return plan.completion_s
