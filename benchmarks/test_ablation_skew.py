"""Ablation: reducer balance under key skew — hypercube vs hash partitioning.

Section 2.1 calls out the MapReduce model's "poor immunity to key skews":
with popular join-attribute values, hash partitioning sends the hot key's
entire workload to one reducer.  Algorithm 1's hypercube partition is
keyed on *tuple position*, not attribute value, so its reducer loads stay
balanced regardless of the value distribution.

For each skew level we run the same skewed equi-join twice — once as the
hash-partitioned equi job, once as the Hilbert hypercube job — and report
the reducer input imbalance (max/mean bytes) and the simulated makespan.
Both runs must produce identical join answers.
"""

from _harness import Table, once, quick_mode

from repro.core.partitioner import HypercubePartitioner
from repro.joins.jobs import make_equi_join_job, make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.joins.reference import join_result_signature, reference_join
from repro.mapreduce.runtime import SimulatedCluster
from repro.workloads.synthetic import skewed_equijoin_query

NUM_REDUCERS = 16
ROWS = 220
SKEWS = [0.0, 0.8, 1.2, 1.6]


def imbalance(metrics) -> float:
    loads = [b for b in metrics.reducer_input_bytes]
    mean = sum(loads) / max(1, len(loads))
    return max(loads) / max(mean, 1.0)


def run_one(query, strategy: str):
    cluster = SimulatedCluster()
    aliases = sorted(query.relations)
    files = [
        relation_to_composite_file(query.relations[a], a, file_name=f"f:{a}")
        for a in aliases
    ]
    schemas = {a: query.relations[a].schema for a in aliases}
    if strategy == "hash":
        spec = make_equi_join_job(
            "skew-hash", files[0], files[1], query.conditions, schemas,
            num_reducers=NUM_REDUCERS,
        )
    else:
        partitioner = HypercubePartitioner(
            [f.num_records for f in files], NUM_REDUCERS
        )
        spec = make_hypercube_join_job(
            "skew-cube", files, partitioner,
            query.conditions, schemas,
        )
    return cluster.run_job(spec)


def run():
    skews = SKEWS[:2] if quick_mode() else SKEWS
    table = Table(
        "Ablation — reducer balance under key skew (hash vs hypercube)",
        ["skew", "strategy", "max/mean_load", "makespan_s", "output"],
    )
    summary = {}
    for skew in skews:
        query = skewed_equijoin_query(ROWS, skew=skew, distinct=60, seed=4)
        expected = join_result_signature(reference_join(query))
        for strategy in ("hash", "hypercube"):
            result = run_one(query, strategy)
            assert join_result_signature(result.output.records) == expected
            ratio = imbalance(result.metrics)
            summary[(skew, strategy)] = (ratio, result.metrics.total_time_s)
            table.add(
                f"{skew:g}", strategy, f"{ratio:.2f}",
                result.metrics.total_time_s, result.metrics.output_records,
            )
    table.emit("ablation_skew.txt")
    return summary


def test_skew_ablation(benchmark):
    summary = once(benchmark, run)
    skews = sorted({skew for skew, _ in summary})
    hash_ratios = [summary[(s, "hash")][0] for s in skews]
    cube_ratios = [summary[(s, "hypercube")][0] for s in skews]
    # Hash partitioning degrades as skew grows; the hypercube stays flat.
    assert hash_ratios[-1] > hash_ratios[0] * 1.5
    assert max(cube_ratios) < 2.0
    # At the highest skew the hypercube is the more balanced layout.
    assert cube_ratios[-1] < hash_ratios[-1]
