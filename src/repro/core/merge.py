"""The Section 4.2 result tail: id-based merge of terminal job outputs.

A plan may end in several terminal jobs, each covering part of the
query's relations.  Their outputs are merged pairwise on the global ids of
the relations they share (merges begin as soon as both inputs exist,
overlapping later jobs), smallest pair first.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.group_cost import merge_duration_s
from repro.core.plan import ExecutionPlan
from repro.errors import ExecutionError
from repro.joins.progressive import fold_keys, stack_pairs, window_pairs
from repro.joins.records import CompositeSlab, compose
from repro.mapreduce.hdfs import DistributedFile


def merge_terminals(
    plan: ExecutionPlan,
    job_outputs: Mapping[str, DistributedFile],
    job_ends: Mapping[str, float],
    disk_read_bytes_s: float,
) -> Tuple[CompositeSlab, float, float]:
    """Merge the terminal outputs pairwise, smallest pair first.

    ``disk_read_bytes_s`` is the cluster's disk rate (merge duration).
    Returns the final composites, the simulated time they are ready and
    the total merge time.
    """
    terminals = plan.terminal_jobs()
    #: Live partial results keyed by insertion sequence number.  List
    #: positions in the old quadratic scan preserved insertion order,
    #: so (size, seq_i, seq_j) ordering reproduces its pair choices.
    #: A partial result's cover is its slab's.
    pool: Dict[int, Tuple[CompositeSlab, float]] = {
        sequence: (job_outputs[job.job_id].records, job_ends[job.job_id])  # type: ignore[misc]
        for sequence, job in enumerate(terminals)
    }

    # Candidate heap memoizes pair sizes: each mergeable pair is priced
    # once when both sides exist, instead of re-scanning all pairs per
    # merge (the old O(n^2 * merges) best-pair search).
    candidates: List[Tuple[int, int, int]] = []
    entries = list(pool.items())
    for a in range(len(entries)):
        seq_i, (rows_i, _) = entries[a]
        for b in range(a + 1, len(entries)):
            seq_j, (rows_j, _) = entries[b]
            if not set(rows_i.cover).isdisjoint(rows_j.cover):
                heapq.heappush(
                    candidates, (len(rows_i) + len(rows_j), seq_i, seq_j)
                )

    merge_total = 0.0
    next_sequence = len(terminals)
    while len(pool) > 1:
        pair: Optional[Tuple[int, int]] = None
        while candidates:
            _size, seq_i, seq_j = heapq.heappop(candidates)
            if seq_i in pool and seq_j in pool:
                pair = (seq_i, seq_j)
                break
        if pair is None:
            raise ExecutionError(
                "terminal results share no relation; cannot merge"
            )
        seq_i, seq_j = pair
        left_rows, left_ready = pool.pop(seq_i)
        right_rows, right_ready = pool.pop(seq_j)
        merged_rows = hash_merge(left_rows, right_rows)
        duration = merge_duration_s(
            len(left_rows), len(right_rows), len(merged_rows), disk_read_bytes_s
        )
        merge_total += duration
        ready = max(left_ready, right_ready) + duration
        for seq_other, (rows_other, _) in pool.items():
            if not set(merged_rows.cover).isdisjoint(rows_other.cover):
                heapq.heappush(
                    candidates,
                    (
                        len(merged_rows) + len(rows_other),
                        seq_other,
                        next_sequence,
                    ),
                )
        pool[next_sequence] = (merged_rows, ready)
        next_sequence += 1

    composites, ready = next(iter(pool.values()))
    if len(terminals) == 1:
        ready = job_ends[terminals[0].job_id]
    return composites, ready, merge_total


def hash_merge(left: CompositeSlab, right: CompositeSlab) -> CompositeSlab:
    """Id-based join of two partial results on their shared relations.

    The merge is the reduce kernel's window primitive on id columns: the
    ids of the shared aliases fold into one integer key per composite, a
    stable sort of the right keys plus one ``searchsorted`` per edge gives
    every left composite its window of partners, and the merged slab
    gathers index vectors — no composite is built.  Output order is left
    order, partners of one left composite in right arrival order; shared
    aliases keep the left entry (partners agree on the shared ids by key
    construction).  The nested-loop form is ``_reference_hash_merge`` in
    ``tests/joins/tail_oracle.py``.
    """
    shared = sorted(set(left.cover) & set(right.cover))
    if not shared:
        raise ExecutionError("partial results share no relation; cannot merge")
    keys, span = (0, 0), 1  # no digit yet: the first alias's ids are the key
    for alias in shared:
        ids = left.ids(alias), right.ids(alias)
        width = int(max(ids[0].max(initial=0), ids[1].max(initial=0))) + 1
        keys, span = fold_keys(keys, span, ids, width)
    left_key, right_key = keys
    order = np.argsort(right_key, kind="stable")
    ranked = right_key[order]
    first = np.searchsorted(ranked, left_key, side="left")
    partners = np.searchsorted(ranked, left_key, side="right") - first
    return compose(
        [left, right], stack_pairs(list(window_pairs(first, partners, order)))
    )
