"""Ablation: Algorithm 2's pruning lemmas on vs off.

Lemmas 1 and 2 keep G'JP tractable.  This ablation builds the join-path
graph for progressively denser join graphs with and without pruning and
reports candidate counts and construction work (paths priced) — the
deterministic columns of ``results/ablation_pruning.*``.  The wall-clock
speed-up is asserted on the densest graph but not written to the artefact,
which has to be byte-stable from run to run.
"""

import time

from _harness import Table, once

from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import CandidateCost, build_join_path_graph


def dense_graph(num_vertices: int) -> JoinGraph:
    """A ring plus chords: every vertex on a cycle, extra edges across."""
    vertices = [f"R{i}" for i in range(num_vertices)]
    edges = {}
    cid = 0
    for i in range(num_vertices):
        cid += 1
        edges[cid] = (vertices[i], vertices[(i + 1) % num_vertices])
    for i in range(0, num_vertices - 2, 2):
        cid += 1
        edges[cid] = (vertices[i], vertices[i + 2])
    return JoinGraph(vertices, edges)


def evaluator(path):
    # Superlinear cost in hop count: multi-way jobs get progressively
    # less attractive, which is what lets Lemma 1 bite.
    return CandidateCost(time_s=float(len(path)) ** 1.6, reducers=len(path) * 2)


def run():
    table = Table(
        "Ablation — G'JP construction with/without Lemma 1+2 pruning",
        ["vertices", "edges", "pruned_candidates", "full_candidates",
         "pruned_work", "full_work"],
    )
    outcomes = {}
    for n in (4, 5, 6):
        graph = dense_graph(n)
        t0 = time.perf_counter()
        pruned = build_join_path_graph(graph, evaluator)
        t1 = time.perf_counter()
        full = build_join_path_graph(graph, evaluator, apply_pruning=False)
        t2 = time.perf_counter()
        speed_ratio = (t2 - t1) / max(t1 - t0, 1e-9)
        outcomes[n] = (
            len(pruned), len(full), pruned.enumerated, full.enumerated, speed_ratio
        )
        table.add(
            n, graph.num_edges, len(pruned), len(full),
            pruned.enumerated, full.enumerated,
        )
        assert pruned.is_sufficient() and full.is_sufficient()
    table.emit("ablation_pruning.txt")
    return outcomes


def test_pruning_ablation(benchmark):
    outcomes = once(benchmark, run)
    for n, (kept, full, priced_pruned, priced_full, _speed) in outcomes.items():
        assert kept <= full
        assert priced_pruned <= priced_full
    # 6x less work priced on the densest graph (~9x measured): pruning
    # must at least not cost more time than it saves.
    assert outcomes[6][4] > 1.0
    # Pruning must bite harder as the graph densifies.
    small_ratio = outcomes[4][1] / max(outcomes[4][0], 1)
    large_ratio = outcomes[6][1] / max(outcomes[6][0], 1)
    assert large_ratio >= small_ratio
