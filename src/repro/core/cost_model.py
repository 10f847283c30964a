"""The I/O- and network-aware cost model for a single MapReduce job.

Implements Section 4.1 of the paper (Equations 1-6): the execution time of
a MapReduce job is built from

* ``tM`` — one map task: sequential block read plus spill writes whose
  amplification ``p`` grows with per-task output (Equation 1);
* ``JM = ceil(m/m') * tM`` — map tasks run in rounds (Equation 2);
* ``tCP`` — copying one task's output to ``n`` reducers: network transfer
  plus the connection-serving overhead ``q * n`` (Equation 3);
* ``JR`` — the reduce phase, dominated by the most loaded reduce task
  whose input is estimated as ``alpha*SI/n + 3*sigma`` via the
  three-sigma rule (Equation 5);
* the map/copy overlap rule of Equation 6.

The model is *predictive*: it works from a :class:`JobProfile` (estimated
sizes) and :class:`CostModelParameters` (system constants, either taken
from the cluster config or fitted by :mod:`repro.core.calibration`).
The simulated runtime charges time with the same phase structure, so the
Fig. 8 validation compares this model against "measured" noisy runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import PlanningError
from repro.mapreduce.config import ClusterConfig
from repro.utils import ceil_div


@dataclass(frozen=True)
class CostModelParameters:
    """System constants of the cost model (the paper's C1, C2, p, q)."""

    #: Seconds per byte of sequential disk read (1 / read rate); part of C1.
    read_s_per_byte: float
    #: Seconds per byte of disk write; the other part of C1.
    write_s_per_byte: float
    #: Seconds per byte copied over the network; the paper's C2.
    network_s_per_byte: float
    #: Seconds for a map task to serve one reducer connection; the paper's q.
    connection_s: float
    #: CPU seconds per processed record.
    cpu_record_s: float
    #: CPU seconds per theta-comparison in a join reducer.
    cpu_comparison_s: float
    #: Fixed job start-up seconds.
    startup_s: float
    #: Map output bytes per task before spills amplify (io.sort buffer).
    spill_threshold_bytes: float
    #: Growth rate of the spill amplification p beyond the threshold.
    spill_slope: float = 0.35
    #: Reduce merge amplification base (io.sort.factor driven).
    merge_factor: float = 300.0

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "CostModelParameters":
        """Ground-truth constants straight from the cluster configuration."""
        return cls(
            read_s_per_byte=1.0 / config.disk_read_bytes_s,
            write_s_per_byte=1.0 / config.disk_write_bytes_s,
            network_s_per_byte=1.0 / config.network_bytes_s,
            connection_s=config.connection_overhead_s,
            cpu_record_s=config.cpu_per_record_s,
            cpu_comparison_s=config.cpu_per_comparison_s,
            startup_s=config.job_startup_s,
            spill_threshold_bytes=config.hadoop.spill_threshold_bytes,
            merge_factor=float(config.hadoop.io_sort_factor),
        )


@dataclass(frozen=True)
class JobProfile:
    """Analytic description of a prospective MapReduce job.

    Everything the cost model needs, in the paper's notation:
    ``SI`` = input_bytes, ``alpha`` = map output ratio, ``SCP`` =
    map_output_bytes, ``n`` = num_reducers, plus reducer skew and the
    join-work estimate.
    """

    name: str
    input_bytes: float
    input_records: float
    map_output_bytes: float
    map_output_records: float
    num_reducers: int
    #: Expected input bytes of the *most loaded* reducer; when zero, the
    #: balanced share plus three sigmas is used (Equation 5).
    max_reducer_input_bytes: float = 0.0
    #: Standard deviation of reducer input sizes for the three-sigma rule.
    reducer_input_sigma: float = 0.0
    #: Candidate theta-comparisons performed by the most loaded reducer.
    comparisons_max_reducer: float = 0.0
    #: Expected output bytes of the whole job (beta * SCP).
    output_bytes: float = 0.0
    #: Output bytes written by the most loaded reducer; 0 = balanced
    #: (output_bytes / n).  Skewed equality keys set this explicitly.
    output_max_reducer_bytes: float = 0.0
    #: Number of map tasks; derived from blocks when zero.
    num_map_tasks: int = 0


@dataclass(frozen=True)
class CostBreakdown:
    """Phase times of one estimated job (Figure 3's JM / JCP / JR)."""

    map_time_s: float
    copy_time_s: float
    reduce_time_s: float
    startup_s: float
    total_s: float

    def __repr__(self) -> str:
        return (
            f"CostBreakdown(JM={self.map_time_s:.2f}, JCP={self.copy_time_s:.2f}, "
            f"JR={self.reduce_time_s:.2f}, total={self.total_s:.2f}s)"
        )


class MRJCostModel:
    """Estimates the execution time of one MapReduce job (Equations 1-6)."""

    def __init__(
        self,
        params: CostModelParameters,
        block_size: int,
    ) -> None:
        self.params = params
        self.block_size = block_size

    @classmethod
    def for_cluster(cls, config: ClusterConfig) -> "MRJCostModel":
        return cls(CostModelParameters.from_config(config), config.hadoop.fs_block_size)

    # ------------------------------------------------------------------

    def estimate(
        self,
        profile: JobProfile,
        map_units: int,
        reduce_units: Optional[int] = None,
    ) -> CostBreakdown:
        """Equations 1-6 for the given slot allotment."""
        if map_units < 1:
            raise PlanningError("map_units must be >= 1")
        reduce_units = reduce_units or map_units
        p = self.params

        m = profile.num_map_tasks or max(
            1, ceil_div(int(profile.input_bytes), self.block_size)
        )
        n = profile.num_reducers
        m_parallel = max(1, min(m, map_units))
        rounds = ceil_div(m, m_parallel)

        input_per_task = profile.input_bytes / m
        output_per_task = profile.map_output_bytes / m
        records_per_task = profile.input_records / m

        # Equation 1: tM = (C1 + p*alpha) * SI/m.
        spill = self._spill_passes(output_per_task)
        t_map = (
            input_per_task * p.read_s_per_byte
            + output_per_task * spill * p.write_s_per_byte
            + records_per_task * p.cpu_record_s
        )
        # Equation 2.
        j_map = rounds * t_map

        # Equation 3: tCP = C2 * alpha*SI/(n*m) * n + q*n — i.e. the whole
        # task output crosses the network plus per-connection overhead.
        t_copy = output_per_task * p.network_s_per_byte + p.connection_s * n
        # Equation 4.
        j_copy = rounds * t_copy

        # Equation 5: JR from the most loaded reducer.
        max_input = profile.max_reducer_input_bytes
        if max_input <= 0:
            balanced = profile.map_output_bytes / n
            max_input = balanced + 3.0 * profile.reducer_input_sigma
        merge = self._merge_passes(max_input)
        reduce_io = max_input * merge * (p.read_s_per_byte + p.write_s_per_byte)
        values_max = (
            profile.map_output_records / n if n else profile.map_output_records
        )
        reduce_cpu = (
            values_max * p.cpu_record_s
            + profile.comparisons_max_reducer * p.cpu_comparison_s
        )
        output_per_reducer = profile.output_max_reducer_bytes or (
            profile.output_bytes / max(n, 1)
        )
        output_write = output_per_reducer * p.write_s_per_byte
        per_reducer = reduce_io + reduce_cpu + output_write
        reduce_rounds = ceil_div(n, max(1, min(n, reduce_units)))
        j_reduce = per_reducer * reduce_rounds

        # Equation 6: overlap of map and copy streams.
        if t_map >= t_copy:
            total = j_map + t_copy + j_reduce
        else:
            total = t_map + j_copy + j_reduce

        return CostBreakdown(
            map_time_s=j_map,
            copy_time_s=j_copy,
            reduce_time_s=j_reduce,
            startup_s=p.startup_s,
            total_s=total + p.startup_s,
        )

    def estimate_seconds(
        self, profile: JobProfile, map_units: int, reduce_units: Optional[int] = None
    ) -> float:
        return self.estimate(profile, map_units, reduce_units).total_s

    # ------------------------------------------------------------------

    def _spill_passes(self, map_output_per_task: float) -> float:
        threshold = self.params.spill_threshold_bytes
        if map_output_per_task <= threshold or threshold <= 0:
            return 1.0
        return 1.0 + self.params.spill_slope * math.log2(
            map_output_per_task / threshold
        )

    def _merge_passes(self, reducer_input_bytes: float) -> float:
        threshold = self.params.spill_threshold_bytes / 0.9  # io.sort buffer
        if reducer_input_bytes <= threshold or threshold <= 0:
            return 1.0
        return 1.0 + max(
            0.0, math.log(reducer_input_bytes / threshold, self.params.merge_factor)
        )
