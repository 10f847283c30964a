"""Reference in-memory multi-way theta-join: the correctness oracle.

A straightforward progressive nested-loop evaluation used by the test
suite to validate every MapReduce join implementation.  Conditions are
applied as early as possible (as soon as both endpoints are bound), so
small test inputs stay fast, but no cleverness beyond that — this code is
meant to be obviously correct.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.joins.records import Composite
from repro.relational.query import JoinQuery


def reference_join(query: JoinQuery) -> List[Composite]:
    """All result composites of ``query``, in deterministic order.

    Each alias is bound once, so a partial grows by appending the new
    alias's entry; the finished composites are alias-sorted at the end."""
    # Order aliases so each new alias connects to the ones already bound
    # (possible because the query graph is connected).
    order = _connected_alias_order(query)
    schemas = {alias: query.relations[alias].schema for alias in query.aliases}

    partial: List[Composite] = [()]
    bound: Set[str] = set()
    for alias in order:
        relation = query.relations[alias]
        bound.add(alias)
        ready = [
            c
            for c in query.conditions
            if alias in c.aliases and set(c.aliases) <= bound
        ]
        grown: List[Composite] = []
        for composite in partial:
            for global_id, row in enumerate(relation.rows):
                candidate = composite + ((alias, global_id, row),)
                rows = {a: r for a, _, r in candidate}
                if all(c.evaluate(rows, schemas) for c in ready):
                    grown.append(candidate)
        partial = grown
        if not partial:
            return []
    # Late safety net: every condition must hold on the final composites.
    results = []
    for composite in partial:
        rows = {a: r for a, _, r in composite}
        if all(c.evaluate(rows, schemas) for c in query.conditions):
            results.append(tuple(sorted(composite)))
    return sorted(results)


def _connected_alias_order(query: JoinQuery) -> List[str]:
    """Alias order in which each alias (after the first) joins a bound one."""
    remaining = set(query.aliases)
    order = [sorted(remaining)[0]]
    remaining.discard(order[0])
    while remaining:
        frontier = None
        for alias in sorted(remaining):
            touches_bound = any(
                c.touches(alias) and c.other_alias(alias) in order
                for c in query.conditions
            )
            if touches_bound:
                frontier = alias
                break
        if frontier is None:
            # Disconnected queries are rejected by JoinQuery, so this is
            # unreachable; guard anyway for direct misuse.
            frontier = sorted(remaining)[0]
        order.append(frontier)
        remaining.discard(frontier)
    return order


def join_result_signature(composites: Sequence[Composite]) -> Set[Tuple[Tuple[str, int], ...]]:
    """Order-insensitive identity of a join result (alias/id pairs only)."""
    return {
        tuple((alias, gid) for alias, gid, _ in composite)
        for composite in composites
    }
