"""Metrics collected while simulating a MapReduce job.

These counters are the quantities the paper's cost model reasons about:
input size ``SI``, map-output / copied size ``SCP``, per-reducer input
sizes (whose max dominates ``JR``), and the phase times ``JM``, ``JCP``,
``JR`` of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class JobMetrics:
    """All byte/record/time accounting of one simulated MapReduce job."""

    job_name: str = ""

    # Sizes (bytes) -------------------------------------------------------
    input_bytes: int = 0
    map_output_bytes: int = 0
    shuffle_bytes: int = 0
    output_bytes: int = 0

    # Records -------------------------------------------------------------
    input_records: int = 0
    map_output_records: int = 0
    output_records: int = 0
    reduce_comparisons: int = 0

    # Tasks ----------------------------------------------------------------
    num_map_tasks: int = 0
    map_rounds: int = 0
    num_reduce_tasks: int = 0
    reduce_rounds: int = 0
    reducer_input_bytes: List[int] = field(default_factory=list)

    # Phase times (simulated seconds, Figure 3) -----------------------------
    map_time_s: float = 0.0
    copy_time_s: float = 0.0
    reduce_time_s: float = 0.0
    startup_time_s: float = 0.0
    total_time_s: float = 0.0

    @property
    def max_reducer_input_bytes(self) -> int:
        return max(self.reducer_input_bytes, default=0)

    @property
    def mean_reducer_input_bytes(self) -> float:
        if not self.reducer_input_bytes:
            return 0.0
        return sum(self.reducer_input_bytes) / len(self.reducer_input_bytes)

    @property
    def reducer_skew(self) -> float:
        """Max / mean reducer input; 1.0 means perfectly balanced."""
        mean = self.mean_reducer_input_bytes
        if mean == 0:
            return 1.0
        return self.max_reducer_input_bytes / mean

    @property
    def map_output_ratio(self) -> float:
        """The paper's alpha: map output bytes / input bytes."""
        if self.input_bytes == 0:
            return 0.0
        return self.map_output_bytes / self.input_bytes

    @property
    def reduce_output_ratio(self) -> float:
        """The paper's beta: job output bytes / map output bytes."""
        if self.map_output_bytes == 0:
            return 0.0
        return self.output_bytes / self.map_output_bytes

    def summary(self) -> Dict[str, float]:
        """Flat dictionary view used by the benchmark harness tables."""
        return {
            "input_bytes": self.input_bytes,
            "map_output_bytes": self.map_output_bytes,
            "shuffle_bytes": self.shuffle_bytes,
            "output_bytes": self.output_bytes,
            "num_map_tasks": self.num_map_tasks,
            "num_reduce_tasks": self.num_reduce_tasks,
            "max_reducer_input_bytes": self.max_reducer_input_bytes,
            "reducer_skew": round(self.reducer_skew, 3),
            "map_time_s": round(self.map_time_s, 3),
            "copy_time_s": round(self.copy_time_s, 3),
            "reduce_time_s": round(self.reduce_time_s, 3),
            "total_time_s": round(self.total_time_s, 3),
        }


@dataclass
class ExecutionReport:
    """Aggregate over all jobs of one query evaluation (one plan run)."""

    plan_name: str
    job_metrics: List[JobMetrics] = field(default_factory=list)
    #: Wall-clock makespan of the whole schedule, simulated seconds.
    makespan_s: float = 0.0
    #: Time spent in result merge steps (Section 4.2), simulated seconds.
    merge_time_s: float = 0.0
    output_records: int = 0
    #: Jobs restored from the wave-checkpoint tier instead of re-run.
    checkpoint_hits: int = 0
    #: Jobs whose output this run persisted into the checkpoint tier.
    checkpoint_stores: int = 0

    @property
    def num_jobs(self) -> int:
        return len(self.job_metrics)

    @property
    def total_shuffle_bytes(self) -> int:
        return sum(m.shuffle_bytes for m in self.job_metrics)

    def summary(self) -> Dict[str, float]:
        return {
            "plan": self.plan_name,
            "jobs": self.num_jobs,
            "makespan_s": round(self.makespan_s, 2),
            "merge_time_s": round(self.merge_time_s, 2),
            "shuffle_bytes": self.total_shuffle_bytes,
            "output_records": self.output_records,
        }
