"""Figure 7: (a) best kR vs map output volume; (b) the p and q variables.

7(a): for each map-output volume, sweep kR on a probe job and report the
kR with the best execution time; the paper fits a growing curve through
these points.  7(b): the calibrated spill variable p and the
connection-serving variable q as functions of problem size.
"""

from _harness import Table, once, quick_mode

from repro.core.calibration import calibrate, make_shuffle_probe_job
from repro.core.reducer_selection import best_kr_for_map_output
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.utils import GB, MB

#: Spanning the regime where connection overhead dominates (tiny
#: outputs) to where reducer input dominates — this is where Figure 6's
#: inflection points, collected here as Figure 7a, live.
OUTPUT_VOLUMES_GB = [0.05, 0.2, 1, 5, 20]
REDUCERS = [2, 4, 8, 16, 32, 64]


def best_kr_curve():
    volumes = OUTPUT_VOLUMES_GB[:3] if quick_mode() else OUTPUT_VOLUMES_GB
    table = Table(
        "Figure 7a — best kR for different map output volumes",
        ["map_output", "best_kR_measured", "fitting_curve_kR"],
    )
    measured = {}
    for volume in volumes:
        rows = 60
        cluster = SimulatedCluster(ClusterConfig())
        times = {}
        for k in REDUCERS:
            spec = make_shuffle_probe_job(
                rows, duplication=2, num_reducers=k,
                bytes_per_row=int(volume * GB) // (rows * 2), seed=int(volume * 100),
            )
            times[k] = cluster.run_job(spec).metrics.total_time_s
        best = min(times, key=times.get)
        measured[volume] = best
        table.add(
            f"{volume}GB", best, best_kr_for_map_output(volume * 1024)
        )
    table.emit("fig7a_best_kr.txt")
    return measured


def pq_distributions():
    cluster = SimulatedCluster(ClusterConfig().with_noise(0.04))
    # Duplications up to 32 push per-task map outputs past the spill
    # threshold (io.sort.mb-derived, ~460 MB), where p starts to grow —
    # the right-hand side of the paper's Figure 7b.
    result = calibrate(
        cluster,
        row_counts=(30, 120, 480),
        reducer_counts=(2, 8, 24),
        duplications=(1, 8, 32),
    )
    table = Table(
        "Figure 7b — distributions of p (spill) and q (connections)",
        ["map_output_per_task", "p_s_per_byte", "q_s_per_connection"],
    )
    q_mean = sum(q for _, q in result.q_samples) / len(result.q_samples)
    for output, p in result.p_samples[:: max(1, len(result.p_samples) // 8)]:
        table.add(f"{output / MB:.0f}MB", f"{p:.3e}", f"{q_mean:.4f}")
    table.emit("fig7b_pq.txt")
    return result


def test_fig7a_best_kr_grows_with_output(benchmark):
    measured = once(benchmark, best_kr_curve)
    volumes = sorted(measured)
    # Small outputs prefer few reducers; large outputs prefer many.
    assert measured[volumes[0]] <= measured[volumes[-1]]
    assert measured[volumes[-1]] >= 8


def test_fig7b_p_and_q(benchmark):
    result = once(benchmark, pq_distributions)
    ps = [p for _, p in result.p_samples]
    # p really grows once per-task output crosses the spill threshold.
    assert ps[-1] > ps[0] * 1.2
    assert all(q > 0 for _, q in result.q_samples)
