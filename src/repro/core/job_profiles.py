"""Analytic :class:`JobProfile` builders for each physical join operator.

These translate "what the job will move" into the cost model's inputs:
byte volumes from the partitioner's duplication accounting, reducer skew
from the partition balance, and the progressive-join comparison estimate
that mirrors what the reducers in :mod:`repro.joins.jobs` actually do.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.cost_model import JobProfile
from repro.core.partitioner import PartitionSummary
from repro.errors import PlanningError

#: Serialization overhead per shuffled (key, value) pair, matching the
#: simulator's accounting in repro.mapreduce.job.estimate_width.
PAIR_OVERHEAD_BYTES = 12


def _collision_factor(key_distinct: float, num_reducers: int) -> float:
    """Balls-in-bins excess of the most loaded reducer when hashing
    ``key_distinct`` indivisible key groups onto ``num_reducers``."""
    import math

    keys = max(1.0, key_distinct)
    n = float(num_reducers)
    if keys <= n:
        return 1.0 + keys / (2.0 * n)
    groups_per_reducer = keys / n
    max_groups = groups_per_reducer + math.sqrt(
        2.0 * groups_per_reducer * math.log(max(2.0, n))
    )
    return max(1.0, max_groups / groups_per_reducer)


def hypercube_profile(
    name: str,
    cardinalities: Sequence[int],
    record_widths: Sequence[int],
    summary: PartitionSummary,
    step_selectivities: Sequence[float],
    output_rows: float,
    output_width: int,
) -> JobProfile:
    """Profile of a one-MRJ hypercube theta-join (Algorithm 1).

    ``step_selectivities[i]`` is the combined selectivity of the
    conditions that become checkable when dimension ``i`` is bound (1.0
    for dimension 0); the progressive-comparison estimate below mirrors
    the reducer implementation.
    """
    if len(cardinalities) != len(record_widths):
        raise PlanningError("cardinalities and record_widths must align")
    if len(step_selectivities) != len(cardinalities):
        raise PlanningError("need one step selectivity per dimension")

    input_bytes = sum(c * w for c, w in zip(cardinalities, record_widths))
    input_records = sum(cardinalities)
    map_output_records = summary.duplication_score
    map_output_bytes = sum(
        dup * (w + PAIR_OVERHEAD_BYTES)
        for dup, w in zip(summary.duplication_by_dim, record_widths)
    )

    # Progressive comparisons of the *average* component, scaled to the
    # most loaded one by the partition's tuple balance.
    k = summary.num_components
    per_dim_tuples = [dup / k for dup in summary.duplication_by_dim]
    comparisons = 0.0
    intermediate = per_dim_tuples[0] * step_selectivities[0]
    for step in range(1, len(per_dim_tuples)):
        comparisons += intermediate * per_dim_tuples[step]
        intermediate *= per_dim_tuples[step] * step_selectivities[step]
    mean_tuples = sum(per_dim_tuples)
    balance = 1.0
    if mean_tuples > 0:
        balance = summary.max_tuples_per_component / mean_tuples
    comparisons_max = comparisons * balance

    avg_pair_width = map_output_bytes / max(1, map_output_records)
    max_reducer_input = summary.max_tuples_per_component * avg_pair_width

    return JobProfile(
        name=name,
        input_bytes=float(input_bytes),
        input_records=float(input_records),
        map_output_bytes=float(map_output_bytes),
        map_output_records=float(map_output_records),
        num_reducers=k,
        max_reducer_input_bytes=max_reducer_input,
        reducer_input_sigma=summary.tuples_sigma * avg_pair_width,
        comparisons_max_reducer=comparisons_max,
        output_bytes=output_rows * output_width,
    )


def equi_profile(
    name: str,
    left: Tuple[int, int],
    right: Tuple[int, int],
    num_reducers: int,
    key_distinct: float,
    output_rows: float,
    output_width: int,
    skew_fraction: float = 0.08,
    hot_input_fraction: float = 0.0,
    hot_output_fraction: float = 0.0,
) -> JobProfile:
    """Profile of a repartition equi-join; ``left``/``right`` are (rows, width).

    ``key_distinct`` drives the per-key pair count; ``skew_fraction`` is
    the hash-noise sigma of the three-sigma rule (Equation 5);
    ``hot_input_fraction`` / ``hot_output_fraction`` are the shares of
    input/output concentrated on the hottest key (from the end-biased
    histograms) — a single hot key cannot be split across reducers, so it
    lower-bounds the most loaded reducer regardless of n.
    """
    (l_rows, l_width), (r_rows, r_width) = left, right
    if l_rows < 0 or r_rows < 0:
        raise PlanningError("cardinalities must be non-negative")
    input_bytes = l_rows * l_width + r_rows * r_width
    map_output_bytes = (
        l_rows * (l_width + PAIR_OVERHEAD_BYTES)
        + r_rows * (r_width + PAIR_OVERHEAD_BYTES)
    )
    mean_reducer = map_output_bytes / num_reducers * _collision_factor(
        key_distinct, num_reducers
    )
    sigma = mean_reducer * skew_fraction
    max_input = max(
        mean_reducer + 3.0 * sigma, map_output_bytes * hot_input_fraction
    )

    pairs_total = l_rows * r_rows / max(key_distinct, 1.0)
    comparisons_max = max(
        (pairs_total / num_reducers) * (1.0 + 3.0 * skew_fraction),
        pairs_total * hot_output_fraction,
    )
    output_bytes = output_rows * output_width
    output_max = output_bytes * max(
        1.0 / num_reducers, hot_output_fraction
    )

    return JobProfile(
        name=name,
        input_bytes=float(input_bytes),
        input_records=float(l_rows + r_rows),
        map_output_bytes=float(map_output_bytes),
        map_output_records=float(l_rows + r_rows),
        num_reducers=num_reducers,
        max_reducer_input_bytes=max_input,
        reducer_input_sigma=sigma,
        comparisons_max_reducer=comparisons_max,
        output_bytes=output_bytes,
        output_max_reducer_bytes=output_max,
    )


def equichain_profile(
    name: str,
    cardinalities: Sequence[int],
    record_widths: Sequence[int],
    key_distinct: float,
    cumulative_intermediates: Sequence[float],
    output_rows: float,
    output_width: int,
    num_reducers: int,
    skew_fraction: float = 0.1,
    hot_input_fraction: float = 0.0,
    hot_output_fraction: float = 0.0,
) -> JobProfile:
    """Profile of a multi-input join co-partitioned on one equality class.

    No tuple is replicated (each input is hashed once by the shared key),
    reducer parallelism is bounded by the number of distinct keys, and the
    join work is hash-join-like: ``cumulative_intermediates[i]`` is the
    expected partial-result size after binding input ``i``.
    """
    if len(cardinalities) != len(record_widths):
        raise PlanningError("cardinalities and record_widths must align")
    if len(cumulative_intermediates) != len(cardinalities):
        raise PlanningError("need one intermediate estimate per input")

    input_bytes = sum(c * w for c, w in zip(cardinalities, record_widths))
    input_records = sum(cardinalities)
    map_output_bytes = sum(
        c * (w + PAIR_OVERHEAD_BYTES)
        for c, w in zip(cardinalities, record_widths)
    )

    keys = max(1.0, key_distinct)
    comparisons = 0.0
    for step in range(1, len(cardinalities)):
        comparisons += (
            cumulative_intermediates[step - 1] * cardinalities[step] / keys
        )
    # Key groups are indivisible; hashing `keys` groups onto n reducers
    # leaves the most loaded reducer with a balls-in-bins excess.
    effective_parallelism = max(1.0, min(float(num_reducers), keys))
    mean_reducer = map_output_bytes / effective_parallelism
    sigma = mean_reducer * skew_fraction
    mean_reducer *= _collision_factor(keys, num_reducers)
    max_input = max(
        mean_reducer + 3.0 * sigma, map_output_bytes * hot_input_fraction
    )
    output_bytes = output_rows * output_width
    output_max = output_bytes * max(
        1.0 / effective_parallelism, hot_output_fraction
    )

    return JobProfile(
        name=name,
        input_bytes=float(input_bytes),
        input_records=float(input_records),
        map_output_bytes=float(map_output_bytes),
        map_output_records=float(input_records),
        num_reducers=num_reducers,
        max_reducer_input_bytes=max_input,
        reducer_input_sigma=sigma,
        comparisons_max_reducer=max(
            comparisons / effective_parallelism * (1.0 + 3.0 * skew_fraction),
            comparisons * hot_output_fraction,
        ),
        output_bytes=output_bytes,
        output_max_reducer_bytes=output_max,
    )
