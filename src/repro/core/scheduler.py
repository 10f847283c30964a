"""Scheduling a group of MapReduce jobs on kP processing units (Section 4.2).

Each selected MapReduce job is a *malleable* task: its running time is a
non-increasing function of the processing units allotted to it (more
units = more parallel map/reduce slots, with diminishing returns).
Scheduling independent malleable tasks on bounded processors to minimise
makespan is NP-hard; the paper adopts the (1+epsilon)-approximation
methodology of Jansen [19].  We implement the practical two-phase scheme
that underlies that line of work:

1. **Allotment selection** — binary-search a target makespan ``tau`` over
   the distinct achievable job times; for each ``tau`` give every job the
   *fewest* units that meet ``tau`` (canonical allotments).
2. **List scheduling** — place the allotted jobs greedily (longest first)
   on the unit budget; the classic 2-approximation bound applies, so the
   search converges to a schedule within a constant factor of optimal in
   time linear in |T| * kP * (1/epsilon), matching the paper's usage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulingError


@dataclass(frozen=True)
class MalleableJob:
    """One schedulable job: id plus its time-vs-units profile."""

    job_id: str
    #: units -> seconds; must contain at least one entry.
    time_by_units: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.time_by_units:
            raise SchedulingError(f"job {self.job_id!r} has an empty time profile")
        for units, seconds in self.time_by_units.items():
            if units < 1 or seconds < 0:
                raise SchedulingError(
                    f"job {self.job_id!r}: invalid profile point ({units}, {seconds})"
                )

    def time_at(self, units: int) -> float:
        """Time with ``units`` allotted: the best profile point not exceeding it."""
        usable = [u for u in self.time_by_units if u <= units]
        if not usable:
            raise SchedulingError(
                f"job {self.job_id!r} cannot run with only {units} units"
            )
        return min(self.time_by_units[u] for u in usable)

    def min_units(self) -> int:
        return min(self.time_by_units)

    def canonical_allotment(self, tau: float, budget: int) -> Optional[int]:
        """Fewest units achieving time <= tau, or None if unachievable."""
        feasible = [
            u
            for u, seconds in self.time_by_units.items()
            if seconds <= tau and u <= budget
        ]
        return min(feasible) if feasible else None


@dataclass
class ScheduledJob:
    """One placed job: allotment plus its slot in the simulated timeline."""

    job_id: str
    units: int
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class Schedule:
    """A full placement of the job set on the unit budget."""

    jobs: List[ScheduledJob]
    total_units: int

    @property
    def makespan_s(self) -> float:
        return max((j.end_s for j in self.jobs), default=0.0)

    def job(self, job_id: str) -> ScheduledJob:
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise SchedulingError(f"no scheduled job {job_id!r}")

    def verify(self) -> None:
        """Assert the unit budget is never exceeded (used by tests)."""
        events: List[Tuple[float, int]] = []
        for job in self.jobs:
            events.append((job.start_s, job.units))
            events.append((job.end_s, -job.units))
        events.sort()
        in_use = 0
        for _, delta in events:
            in_use += delta
            if in_use > self.total_units + 1e-9:
                raise SchedulingError(
                    f"schedule uses {in_use} units, budget is {self.total_units}"
                )


class MalleableScheduler:
    """Two-phase malleable-task scheduling under a unit budget."""

    def __init__(self, total_units: int, epsilon: float = 0.05) -> None:
        if total_units < 1:
            raise SchedulingError("total_units must be >= 1")
        if epsilon <= 0:
            raise SchedulingError("epsilon must be positive")
        self.total_units = total_units
        self.epsilon = epsilon

    # ------------------------------------------------------------------

    def schedule(self, jobs: Sequence[MalleableJob]) -> Schedule:
        """Best schedule found over the candidate makespan targets."""
        if not jobs:
            return Schedule(jobs=[], total_units=self.total_units)
        for job in jobs:
            if job.min_units() > self.total_units:
                raise SchedulingError(
                    f"job {job.job_id!r} needs at least {job.min_units()} units; "
                    f"budget is {self.total_units}"
                )

        taus = sorted(
            {
                seconds
                for job in jobs
                for units, seconds in job.time_by_units.items()
                if units <= self.total_units
            }
        )
        # Evaluate every candidate target: canonical allotments are not
        # monotone in tau (a looser target can admit narrower allotments
        # that pack better), so a binary search can miss the optimum.
        best: Optional[Schedule] = None
        for tau in taus:
            candidate = self._schedule_for_target(jobs, tau)
            if candidate is not None:
                if best is None or candidate.makespan_s < best.makespan_s:
                    best = candidate
        # The largest tau admits every job's narrowest allotment.
        assert best is not None
        return best

    # ------------------------------------------------------------------

    def _schedule_for_target(
        self, jobs: Sequence[MalleableJob], tau: float
    ) -> Optional[Schedule]:
        allotments: List[Tuple[MalleableJob, int, float]] = []
        for job in jobs:
            units = job.canonical_allotment(tau, self.total_units)
            if units is None:
                return None
            allotments.append((job, units, job.time_at(units)))
        return self._list_schedule(allotments)

    def _list_schedule(
        self, allotments: Sequence[Tuple[MalleableJob, int, float]]
    ) -> Schedule:
        """Greedy longest-processing-time placement with a unit budget."""
        pending = sorted(allotments, key=lambda a: -a[2])
        placed: List[ScheduledJob] = []
        # (end_time, units_released) of running jobs.
        running: List[Tuple[float, int]] = []
        available = self.total_units
        now = 0.0
        waiting = list(pending)
        while waiting:
            progressed = False
            still_waiting = []
            for job, units, duration in waiting:
                if units <= available:
                    placed.append(
                        ScheduledJob(
                            job_id=job.job_id,
                            units=units,
                            start_s=now,
                            duration_s=duration,
                        )
                    )
                    heapq.heappush(running, (now + duration, units))
                    available -= units
                    progressed = True
                else:
                    still_waiting.append((job, units, duration))
            waiting = still_waiting
            if waiting and not progressed:
                if not running:
                    raise SchedulingError("deadlock: job does not fit an empty cluster")
                end, units = heapq.heappop(running)
                now = end
                available += units
                # Release everything ending at the same instant.
                while running and running[0][0] <= now:
                    _, more = heapq.heappop(running)
                    available += more
            elif waiting:
                # Re-check at the next completion to admit blocked jobs.
                if running:
                    end, units = heapq.heappop(running)
                    now = end
                    available += units
                    while running and running[0][0] <= now:
                        _, more = heapq.heappop(running)
                        available += more
        return Schedule(jobs=placed, total_units=self.total_units)
