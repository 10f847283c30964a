"""Calibrating the cost model from observed job executions (Section 6.2).

The paper derives the system-dependent constants C1, C2 and the random
variables p (spill cost) and q (connection-serving cost) "from
observations on the execution of real jobs", using an output-controllable
self-join program.  This module does the same against the simulated
cluster: it runs probe self-joins across map-output volumes and reducer
counts (with measurement noise enabled), then fits

* ``q`` and the network rate from the copy phase (``tCP = C2*out + q*n``,
  linear in the reducer count n — Equation 3);
* the effective disk read/write rates from the map phase (Equation 1);
* the spill variable ``p`` as a function of per-task output volume.

The fitted :class:`CostModelParameters` feed the Figure 8 validation:
model estimates vs noisy "real" executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.cost_model import CostModelParameters, MRJCostModel
from repro.core.partitioner import HypercubePartitioner
from repro.errors import PlanningError
from repro.joins.jobs import make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.runtime import SimulatedCluster
from repro.utils import MB, linear_fit
from repro.workloads.synthetic import controllable_selfjoin_query


@dataclass
class ProbeObservation:
    """One probe job's relevant measurements."""

    rows: int
    num_reducers: int
    map_output_bytes: int
    map_output_per_task: float
    input_per_task: float
    map_rounds: int
    t_map_s: float
    t_copy_per_round_s: float
    reduce_time_s: float
    total_time_s: float


@dataclass
class CalibrationResult:
    """Fitted parameters plus the raw p/q curves of Figure 7b."""

    params: CostModelParameters
    #: (map output volume in bytes, spill variable p in s/byte) samples.
    p_samples: List[Tuple[float, float]]
    #: (reducer count, per-connection overhead q in seconds) samples.
    q_samples: List[Tuple[int, float]]
    observations: List[ProbeObservation]


def run_self_join_probe(
    cluster: SimulatedCluster,
    rows: int,
    num_reducers: int,
    selectivity: float = 0.01,
    bytes_per_row: int = 64 * 1024,
    seed: int = 0,
) -> JobMetrics:
    """Run one output-controllable self-join on the cluster; returns metrics."""
    query = controllable_selfjoin_query(
        rows, selectivity, seed=seed, bytes_per_row=bytes_per_row,
        name=f"probe{rows}x{num_reducers}",
    )
    aliases = sorted(query.relations)
    files = [
        relation_to_composite_file(query.relations[alias], alias,
                                   file_name=f"{query.name}:{alias}")
        for alias in aliases
    ]
    cards = [f.num_records for f in files]
    partitioner = HypercubePartitioner(cards, num_reducers)
    schemas = {alias: query.relations[alias].schema for alias in aliases}
    spec = make_hypercube_join_job(
        f"probe-{query.name}-{num_reducers}",
        files,
        partitioner,
        query.conditions,
        schemas,
    )
    return cluster.run_job(spec).metrics


def make_shuffle_probe_job(
    rows: int,
    duplication: int,
    num_reducers: int,
    bytes_per_row: int,
    seed: int = 0,
):
    """A probe job with *controlled* output ratio: alpha = ``duplication``.

    The mapper emits each record ``duplication`` times, spread uniformly
    over reducers; the reducer discards its input.  Unlike a join probe,
    the map output volume does not depend on the reducer count, which is
    what lets the copy-phase regression identify q cleanly.
    """
    from repro.mapreduce.job import MapReduceJobSpec
    from repro.utils import stable_hash
    from repro.workloads.synthetic import uniform_relation

    relation = uniform_relation(
        f"shufprobe{rows}x{duplication}", rows, columns=1, seed=seed,
        bytes_per_row=bytes_per_row,
    )
    width = relation.schema.row_width
    file = DistributedFile(
        name=relation.name, records=list(relation.rows), record_width=width,
        tag=relation.name,
    )

    def mapper(tag, record, ctx):
        for copy in range(duplication):
            yield stable_hash((ctx.record_index, copy), num_reducers), record

    def reducer(key, values, ctx):
        return ()

    return MapReduceJobSpec(
        name=f"shuffle-probe-{rows}-{duplication}-{num_reducers}",
        inputs=[file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        pair_width=width + 12,
        output_record_width=width,
    )


def collect_probes(
    cluster: SimulatedCluster,
    row_counts: Sequence[int] = (40, 80, 160),
    reducer_counts: Sequence[int] = (2, 4, 8, 16, 32),
    bytes_per_row: int = 256 * 1024,
    duplications: Sequence[int] = (1, 4),
) -> List[ProbeObservation]:
    """Sweep controlled shuffle probes over sizes, reducers, output ratios."""
    observations: List[ProbeObservation] = []
    for rows in row_counts:
        for dup in duplications:
            for n in reducer_counts:
                spec = make_shuffle_probe_job(
                    rows, dup, n, bytes_per_row, seed=rows + dup + n
                )
                metrics = cluster.run_job(spec).metrics
                rounds = max(1, metrics.map_rounds)
                observations.append(
                    ProbeObservation(
                        rows=rows * dup,
                        num_reducers=n,
                        map_output_bytes=metrics.map_output_bytes,
                        map_output_per_task=metrics.map_output_bytes
                        / max(1, metrics.num_map_tasks),
                        input_per_task=metrics.input_bytes
                        / max(1, metrics.num_map_tasks),
                        map_rounds=rounds,
                        t_map_s=metrics.map_time_s / rounds,
                        t_copy_per_round_s=metrics.copy_time_s / rounds,
                        reduce_time_s=metrics.reduce_time_s,
                        total_time_s=metrics.total_time_s,
                    )
                )
    return observations


def fit_parameters(
    observations: Sequence[ProbeObservation],
    base: CostModelParameters,
) -> CalibrationResult:
    """Least-squares fits for q, C2, and the disk constants."""
    if len(observations) < 4:
        raise PlanningError("need at least 4 probe observations to calibrate")

    # --- q and C2 from the copy phase: tCP = C2 * out_per_task + q * n.
    # Group by probe size; within a group out_per_task is ~constant, so a
    # linear fit of tCP against n yields slope q and intercept C2*out.
    q_samples: List[Tuple[int, float]] = []
    c2_estimates: List[float] = []
    by_rows = {}
    for obs in observations:
        by_rows.setdefault(obs.rows, []).append(obs)
    q_values: List[float] = []
    for rows, group in sorted(by_rows.items()):
        if len(group) < 2:
            continue
        ns = [float(g.num_reducers) for g in group]
        ts = [g.t_copy_per_round_s for g in group]
        slope, intercept = linear_fit(ns, ts)
        if slope > 0:
            q_values.append(slope)
            for g in group:
                q_samples.append((g.num_reducers, slope))
        out = sum(g.map_output_per_task for g in group) / len(group)
        if out > 0 and intercept > 0:
            c2_estimates.append(intercept / out)
    q_fit = sum(q_values) / len(q_values) if q_values else base.connection_s
    c2_fit = (
        sum(c2_estimates) / len(c2_estimates)
        if c2_estimates
        else base.network_s_per_byte
    )

    # --- disk constants from the map phase:
    # t_map = in_per_task * read + out_per_task * spill * write  (cpu ~ 0).
    # Two-variable least squares over all observations.
    read_fit, write_fit = _fit_map_phase(observations, base)

    # --- spill variable p per output volume (Figure 7b's p curve):
    # p(out) = spill_passes(out) * write cost; report in s/byte.
    model = MRJCostModel(base, block_size=64 * MB)
    p_samples = [
        (
            obs.map_output_per_task,
            model._spill_passes(obs.map_output_per_task) * write_fit,
        )
        for obs in observations
    ]

    params = CostModelParameters(
        read_s_per_byte=read_fit,
        write_s_per_byte=write_fit,
        network_s_per_byte=c2_fit,
        connection_s=q_fit,
        cpu_record_s=base.cpu_record_s,
        cpu_comparison_s=base.cpu_comparison_s,
        startup_s=base.startup_s,
        spill_threshold_bytes=base.spill_threshold_bytes,
        spill_slope=base.spill_slope,
        merge_factor=base.merge_factor,
    )
    return CalibrationResult(
        params=params,
        p_samples=sorted(p_samples),
        q_samples=sorted(q_samples),
        observations=list(observations),
    )


def calibrate(
    cluster: SimulatedCluster,
    row_counts: Sequence[int] = (40, 80, 160),
    reducer_counts: Sequence[int] = (2, 4, 8, 16, 32),
    duplications: Sequence[int] = (1, 4),
) -> CalibrationResult:
    """End-to-end calibration against a (possibly noisy) cluster.

    ``duplications`` controls the probes' map output ratios; include
    large values (8+) to push per-task outputs past the spill threshold,
    where the p variable starts growing (the right side of Figure 7b).
    """
    base = CostModelParameters.from_config(cluster.config)
    observations = collect_probes(
        cluster, row_counts, reducer_counts, duplications=duplications
    )
    return fit_parameters(observations, base)


def _fit_map_phase(
    observations: Sequence[ProbeObservation], base: CostModelParameters
) -> Tuple[float, float]:
    """Least squares for t_map = a*in_per_task + b*out_per_task_spilled."""
    # Normal equations for two unknowns.
    s_xx = s_xy = s_yy = s_xz = s_yz = 0.0
    model = MRJCostModel(base, block_size=64 * MB)
    for obs in observations:
        x = obs.input_per_task
        y = obs.map_output_per_task * model._spill_passes(obs.map_output_per_task)
        z = obs.t_map_s
        s_xx += x * x
        s_xy += x * y
        s_yy += y * y
        s_xz += x * z
        s_yz += y * z
    det = s_xx * s_yy - s_xy * s_xy
    if abs(det) < 1e-12:
        return base.read_s_per_byte, base.write_s_per_byte
    read = (s_xz * s_yy - s_yz * s_xy) / det
    write = (s_yz * s_xx - s_xz * s_xy) / det
    # Degenerate sweeps can push a coefficient negative; clamp to the base.
    if read <= 0:
        read = base.read_s_per_byte
    if write <= 0:
        write = base.write_s_per_byte
    return read, write
