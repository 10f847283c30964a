"""Figure 8: cost-model validation — estimated vs real execution time.

The paper runs a self-join over the mobile data at map-output sizes from
~100 MB to ~100 GB and shows the Equation 1-6 estimate tracking the real
execution time closely.  We calibrate the model from probe jobs on a
*noisy* cluster, then compare its predictions against measured runs of
an output-controllable self-join across sizes.
"""

from _harness import Table, once, quick_mode

from repro.core.calibration import calibrate
from repro.core.cost_model import JobProfile, MRJCostModel
from repro.core.partitioner import HypercubePartitioner
from repro.joins.jobs import make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.utils import GB
from repro.workloads.synthetic import controllable_selfjoin_query

SIZES_GB = [0.5, 2, 8, 32, 100]


def run_and_estimate():
    sizes = SIZES_GB[:3] if quick_mode() else SIZES_GB
    config = ClusterConfig().with_noise(0.05)
    cluster = SimulatedCluster(config)
    calibration = calibrate(cluster, row_counts=(30, 60), reducer_counts=(2, 8, 24))
    model = MRJCostModel(calibration.params, config.hadoop.fs_block_size)

    table = Table(
        "Figure 8 — self-join: real vs estimated execution time (simulated s)",
        ["input_size", "real_s", "estimated_s", "rel_error"],
    )
    pairs = []
    for size_gb in sizes:
        rows = 60
        k = 16
        query = controllable_selfjoin_query(
            rows, selectivity=0.02, seed=int(size_gb * 10),
            bytes_per_row=int(size_gb * GB) // (2 * rows),
            name=f"fig8-{size_gb}",
        )
        aliases = sorted(query.relations)
        files = [
            relation_to_composite_file(
                query.relations[a], a, file_name=f"{query.name}:{a}"
            )
            for a in aliases
        ]
        partitioner = HypercubePartitioner([rows, rows], k)
        spec = make_hypercube_join_job(
            f"fig8-{size_gb}", files, partitioner,
            query.conditions, {a: query.relations[a].schema for a in aliases},
        )
        metrics = cluster.run_job(spec).metrics

        # Build the analytic profile from the *observed* sizes (the paper
        # likewise feeds measured statistics into the model).
        profile = JobProfile(
            name=spec.name,
            input_bytes=metrics.input_bytes,
            input_records=metrics.input_records,
            map_output_bytes=metrics.map_output_bytes,
            map_output_records=metrics.map_output_records,
            num_reducers=k,
            max_reducer_input_bytes=metrics.max_reducer_input_bytes,
            comparisons_max_reducer=metrics.reduce_comparisons / k,
            output_bytes=metrics.output_bytes,
            num_map_tasks=metrics.num_map_tasks,
        )
        estimate = model.estimate_seconds(
            profile, config.total_units, config.total_units
        )
        error = abs(estimate - metrics.total_time_s) / metrics.total_time_s
        pairs.append((metrics.total_time_s, estimate, error))
        table.add(
            f"{size_gb}GB", round(metrics.total_time_s, 1),
            round(estimate, 1), f"{error:.1%}",
        )
    table.emit("fig8_cost_model_validation.txt")
    return pairs


def test_fig8_estimates_track_reality(benchmark):
    pairs = once(benchmark, run_and_estimate)
    errors = [error for _, _, error in pairs]
    # The paper shows estimates "very close" to real times; we require the
    # mean relative error under 35% and every point within 60%.
    assert sum(errors) / len(errors) < 0.35
    assert max(errors) < 0.6
    # Both series must grow with input size.
    reals = [real for real, _, _ in pairs]
    estimates = [estimate for _, estimate, _ in pairs]
    assert reals == sorted(reals)
    assert estimates == sorted(estimates)
