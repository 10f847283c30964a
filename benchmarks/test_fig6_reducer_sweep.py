"""Figure 6: sample join execution time vs reduce-task count.

The paper runs a sample join with inputs of 500/100/10/1 GB and sweeps
kR from 2 to 64, observing (a) large inputs gain strongly from more
reducers at first, (b) gains flatten (and can invert) as kR grows, with
a visible inflection for smaller inputs.  We regenerate the four curves
with the simulated cluster.
"""

from _harness import Table, emit_chart, once, quick_mode

from repro.reporting import line_chart

from repro.core.partitioner import HypercubePartitioner
from repro.joins.jobs import make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.utils import GB
from repro.workloads.synthetic import controllable_selfjoin_query

VOLUMES_GB = [500, 100, 10, 1]
REDUCERS = [2, 4, 8, 16, 32, 64]
ROWS = {500: 120, 100: 90, 10: 60, 1: 40}


def run_point(volume_gb: int, num_reducers: int) -> float:
    rows = ROWS[volume_gb]
    query = controllable_selfjoin_query(
        rows, selectivity=0.01, seed=volume_gb,
        bytes_per_row=(volume_gb * GB) // (2 * rows),
        name=f"fig6-{volume_gb}gb",
    )
    cluster = SimulatedCluster(ClusterConfig())
    aliases = sorted(query.relations)
    files = [
        relation_to_composite_file(
            query.relations[a], a, file_name=f"{query.name}:{a}:{num_reducers}"
        )
        for a in aliases
    ]
    partitioner = HypercubePartitioner([f.num_records for f in files], num_reducers)
    spec = make_hypercube_join_job(
        f"fig6-{volume_gb}-{num_reducers}",
        files,
        partitioner,
        query.conditions,
        {a: query.relations[a].schema for a in aliases},
    )
    return cluster.run_job(spec).metrics.total_time_s


def sweep():
    volumes = VOLUMES_GB[:2] if quick_mode() else VOLUMES_GB
    reducers = REDUCERS[:4] if quick_mode() else REDUCERS
    table = Table(
        "Figure 6 — sample join execution time (simulated s) vs kR",
        ["input"] + [f"kR={k}" for k in reducers],
    )
    curves = {}
    for volume in volumes:
        times = [run_point(volume, k) for k in reducers]
        curves[volume] = dict(zip(reducers, times))
        table.add(f"{volume}GB", *[round(t, 1) for t in times])
    table.emit("fig6_reducer_sweep.txt")
    emit_chart(
        "fig6_reducer_sweep_chart.txt",
        line_chart(
            "Figure 6 — execution time vs kR (log x)",
            reducers,
            {f"{v}GB": [curves[v][k] for k in reducers] for v in volumes},
            log_x=True,
        ),
    )
    return curves


def test_fig6_reducer_sweep(benchmark):
    curves = once(benchmark, sweep)
    ks = sorted(next(iter(curves.values())))
    big = curves[max(curves)]
    # (a): the largest input gains significantly from the first doublings.
    assert big[ks[0]] > big[ks[2]]
    # Diminishing returns: the early gain exceeds the late gain.
    early = big[ks[0]] - big[ks[1]]
    late = big[ks[-2]] - big[ks[-1]]
    assert early > late
    # Larger inputs always cost more at equal kR.
    smallest = curves[min(curves)]
    assert all(big[k] > smallest[k] for k in ks)
