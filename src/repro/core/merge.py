"""The Section 4.2 result tail: id-based merge of terminal job outputs.

A plan may end in several terminal jobs, each covering part of the
query's relations.  Their outputs are merged pairwise on the global ids of
the relations they share (merges begin as soon as both inputs exist,
overlapping later jobs), smallest pair first.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.group_cost import merge_duration_s
from repro.core.plan import ExecutionPlan
from repro.errors import ExecutionError
from repro.joins.progressive import merge_picker
from repro.joins.records import Composite, entry_alias, entry_global_id
from repro.mapreduce.hdfs import DistributedFile


def merge_terminals(
    plan: ExecutionPlan,
    job_outputs: Mapping[str, DistributedFile],
    job_ends: Mapping[str, float],
    alias_cover: Mapping[str, Tuple[str, ...]],
    disk_read_bytes_s: float,
) -> Tuple[List[Composite], Tuple[str, ...], float, float]:
    """Merge the terminal outputs pairwise, smallest pair first.

    ``alias_cover`` is the static alias cover of every job's output,
    ``disk_read_bytes_s`` the cluster's disk rate (merge duration).
    Returns the final composites, their alias cover, the simulated
    time they are ready and the total merge time.
    """
    terminals = plan.terminal_jobs()
    #: Live partial results keyed by insertion sequence number.  List
    #: positions in the old quadratic scan preserved insertion order,
    #: so (size, seq_i, seq_j) ordering reproduces its pair choices.
    #: Covers are the static ones of ``alias_cover``, never re-read
    #: from the records.
    pool: Dict[int, Tuple[Tuple[str, ...], List[Composite], float]] = {}
    for sequence, job in enumerate(terminals):
        output = job_outputs[job.job_id]
        composites: List[Composite] = list(output.records)  # type: ignore[arg-type]
        pool[sequence] = (alias_cover[job.job_id], composites, job_ends[job.job_id])

    if not pool:
        return [], (), 0.0, 0.0

    # Candidate heap memoizes pair sizes: each mergeable pair is priced
    # once when both sides exist, instead of re-scanning all pairs per
    # merge (the old O(n^2 * merges) best-pair search).
    candidates: List[Tuple[int, int, int]] = []
    entries = list(pool.items())
    for a in range(len(entries)):
        seq_i, (cover_i, rows_i, _) = entries[a]
        for b in range(a + 1, len(entries)):
            seq_j, (cover_j, rows_j, _) = entries[b]
            if not set(cover_i).isdisjoint(cover_j):
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
        left_cover, left_rows, left_ready = pool.pop(seq_i)
        right_cover, right_rows, right_ready = pool.pop(seq_j)
        merged_rows = hash_merge(left_rows, right_rows, left_cover, right_cover)
        duration = merge_duration_s(
            len(left_rows), len(right_rows), len(merged_rows), disk_read_bytes_s
        )
        merge_total += duration
        ready = max(left_ready, right_ready) + duration
        merged_cover = tuple(sorted(set(left_cover) | set(right_cover)))
        for seq_other, (cover_other, rows_other, _) in pool.items():
            if not set(merged_cover).isdisjoint(cover_other):
                heapq.heappush(
                    candidates,
                    (
                        len(merged_rows) + len(rows_other),
                        seq_other,
                        next_sequence,
                    ),
                )
        pool[next_sequence] = (merged_cover, merged_rows, ready)
        next_sequence += 1

    cover, composites, ready = next(iter(pool.values()))
    if len(terminals) == 1:
        ready = job_ends[terminals[0].job_id]
    return composites, cover, ready, merge_total


def _shared_ids(
    composites: Sequence[Composite], cover: Sequence[str], shared: Sequence[str]
):
    """The shared-alias global ids of each composite, in order: a bare id
    when one alias is shared (the Section 4.2 common case), else a tuple.

    Reading the ids is also where the static ``cover`` is held against
    the records: position-compiled merging never looks at an alias tag
    again, so a composite of another width, or with another alias in any
    slot, must fail here rather than come out as a wrong row.
    """

    def entries_at(position: int):
        return map(itemgetter(position), composites)

    if set(map(len, composites)) != {len(cover)} or any(
        set(map(entry_alias, entries_at(position))) != {alias}
        for position, alias in enumerate(cover)
    ):
        raise ExecutionError(
            f"merge input does not uniformly cover aliases {list(cover)}"
        )
    ids = [map(entry_global_id, entries_at(cover.index(alias))) for alias in shared]
    return ids[0] if len(ids) == 1 else zip(*ids)


def hash_merge(
    left: List[Composite],
    right: List[Composite],
    left_cover: Sequence[str],
    right_cover: Sequence[str],
) -> List[Composite]:
    """Id-based hash join of two partial results on their shared relations.

    Every composite of one partial result covers the same statically known
    alias set, which admits the same position-compiled technique as the
    reduce-side kernel: shared-id keys and the merged entry picks are
    tuple indexing resolved once per merge.  Output order is left order,
    partners of one left composite in right arrival order; shared aliases
    keep the left entry (partners agree on the shared ids by key
    construction).  The nested-loop form is ``_reference_hash_merge`` in
    ``tests/joins/tail_oracle.py``.
    """
    if not left or not right:
        return []
    shared = sorted(set(left_cover) & set(right_cover))
    if not shared:
        raise ExecutionError("partial results share no relation; cannot merge")
    pick = merge_picker(left_cover, right_cover)
    index: Dict[object, List[Composite]] = {}
    for key, composite in zip(_shared_ids(right, right_cover, shared), right):
        index.setdefault(key, []).append(composite)
    partners_of = map(index.get, _shared_ids(left, left_cover, shared))
    return [
        pick(composite + partner)
        for composite, partners in zip(left, partners_of)
        if partners
        for partner in partners
    ]
