"""Eulerian trails of the join graph (Section 3.2, Theorem 1).

The paper grounds the hardness of building the join-path graph GJP in
Eulerian-trail enumeration: when GJ has an Eulerian trail, every
no-edge-repeating path between two vertices is a sub-path of some
Eulerian trail, so constructing GJP is at least as hard as enumerating
Eulerian trails (#P-complete).  Theorem 1 extends the argument to graphs
*without* an Eulerian trail through a virtual-vertex construction: add a
vertex ``vs`` adjacent to all-but-one odd-degree vertices, enumerate the
augmented graph's paths, and drop those that traverse ``vs``.

This module implements that machinery exactly, at the scale where it is
tractable (the paper's queries have at most ~8 join conditions):

* :func:`eulerian_trails` / :func:`eulerian_circuits` — exhaustive
  backtracking enumeration of edge-id sequences;
* :func:`count_eulerian_trails` — the quantity Theorem 1 reduces to;
* :func:`add_virtual_vertex` — the Figure 2 construction;
* :func:`paths_via_virtual_vertex` — GJP path enumeration routed through
  the augmented graph, validating the Theorem 1 proof constructively.

The *unpruned* GJP of Definition 3 is
``build_join_path_graph(..., apply_pruning=False)``.

None of this is on the planner's hot path — Algorithm 2's pruned
construction in :mod:`repro.core.join_path_graph` is — but it is the
paper's analytical backbone and the reference the pruned builder is
tested against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import enumerate_paths
from repro.errors import PlanningError

#: Edge-id sequence of one trail, paired with its start vertex.
Trail = Tuple[str, Tuple[int, ...]]

#: Safety valve: enumeration is #P-complete, so refuse graphs whose
#: trail count would be astronomically large rather than hang.
MAX_EDGES_FOR_ENUMERATION = 16


def _check_enumerable(graph: JoinGraph) -> None:
    if graph.num_edges > MAX_EDGES_FOR_ENUMERATION:
        raise PlanningError(
            f"refusing to enumerate Eulerian trails of a graph with "
            f"{graph.num_edges} edges (> {MAX_EDGES_FOR_ENUMERATION}); "
            "the problem is #P-complete"
        )


def _trails_from(
    graph: JoinGraph, start: str, require_circuit: bool
) -> Iterator[Tuple[int, ...]]:
    """Backtracking enumeration of Eulerian trails starting at ``start``."""
    total = graph.num_edges
    used: Set[int] = set()
    path: List[int] = []

    def walk(vertex: str) -> Iterator[Tuple[int, ...]]:
        if len(path) == total:
            if not require_circuit or vertex == start:
                yield tuple(path)
            return
        for cid in graph.incident_edges(vertex):
            if cid in used:
                continue
            used.add(cid)
            path.append(cid)
            yield from walk(graph.other_endpoint(cid, vertex))
            path.pop()
            used.remove(cid)

    yield from walk(start)


def eulerian_trails(
    graph: JoinGraph, start: Optional[str] = None
) -> List[Trail]:
    """All Eulerian trails of ``graph`` as ``(start_vertex, edge_ids)`` pairs.

    A trail visits every edge exactly once (Definition: the "Eulerian
    trail" of Section 3.2).  When ``start`` is given, only trails starting
    there are returned.  Returns ``[]`` when the graph has none.
    """
    _check_enumerable(graph)
    if not graph.has_eulerian_trail():
        return []
    odd = graph.odd_degree_vertices()
    starts: Sequence[str]
    if start is not None:
        starts = (start,)
    elif odd:
        starts = odd  # trails must start and end at the odd vertices
    else:
        starts = graph.vertices
    found: List[Trail] = []
    for vertex in starts:
        for trail in _trails_from(graph, vertex, require_circuit=False):
            found.append((vertex, trail))
    return found


def eulerian_circuits(graph: JoinGraph, start: Optional[str] = None) -> List[Trail]:
    """All Eulerian circuits (closed trails), the E(GJP) of Figure 1.

    Circuits are rooted: the same cyclic edge sequence starting from a
    different vertex is reported once per starting vertex, matching how
    the paper reads a circuit off a chosen vertex ("for every node there
    exists a closed traversing path").
    """
    _check_enumerable(graph)
    if not graph.has_eulerian_circuit():
        return []
    starts = (start,) if start is not None else graph.vertices
    found: List[Trail] = []
    for vertex in starts:
        for trail in _trails_from(graph, vertex, require_circuit=True):
            found.append((vertex, trail))
    return found


def count_eulerian_trails(graph: JoinGraph) -> int:
    """Number of Eulerian trails — the #P-complete quantity of Theorem 1."""
    return len(eulerian_trails(graph))


def is_eulerian_trail(graph: JoinGraph, start: str, edge_ids: Sequence[int]) -> bool:
    """Check that ``edge_ids`` is a connected trail from ``start`` using
    every edge exactly once."""
    if sorted(edge_ids) != list(graph.edge_ids):
        return False
    current = start
    for cid in edge_ids:
        a, b = graph.endpoints(cid)
        if current == a:
            current = b
        elif current == b:
            current = a
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem 1: the virtual-vertex construction (Figure 2)
# ---------------------------------------------------------------------------

VIRTUAL_VERTEX = "__vs__"


def add_virtual_vertex(graph: JoinGraph) -> Tuple[JoinGraph, Tuple[int, ...]]:
    """Augment a graph without an Eulerian trail so that it has one.

    Adds the virtual vertex ``vs`` and connects it to all-but-one of the
    odd-degree vertices (the proof of Theorem 1).  With ``r`` odd vertices
    (``r`` is always even, and > 2 here), the ``r - 1`` touched vertices
    become even, one odd vertex remains, and ``vs`` itself has odd degree
    ``r - 1`` — exactly two odd vertices, so an Eulerian trail exists.

    Returns the augmented graph and the ids of the virtual edges.
    Raises :class:`PlanningError` when the graph already has an Eulerian
    trail (nothing to fix) or is disconnected.
    """
    if not graph.is_connected():
        raise PlanningError("virtual-vertex construction needs a connected graph")
    odd = graph.odd_degree_vertices()
    if len(odd) <= 2:
        raise PlanningError(
            "graph already has an Eulerian trail; virtual vertex not needed"
        )
    next_id = max(graph.edge_ids) + 1
    edges: Dict[int, Tuple[str, str]] = {
        cid: graph.endpoints(cid) for cid in graph.edge_ids
    }
    virtual_ids: List[int] = []
    for vertex in odd[:-1]:
        edges[next_id] = (VIRTUAL_VERTEX, vertex)
        virtual_ids.append(next_id)
        next_id += 1
    augmented = JoinGraph(
        list(graph.vertices) + [VIRTUAL_VERTEX],
        edges,
    )
    if not augmented.has_eulerian_trail():  # pragma: no cover - by construction
        raise PlanningError("virtual-vertex construction failed to Eulerify")
    return augmented, tuple(virtual_ids)


def paths_via_virtual_vertex(
    graph: JoinGraph, max_hops: Optional[int] = None
) -> List[Tuple[str, str, Tuple[int, ...]]]:
    """Enumerate GJP paths through the Theorem 1 detour.

    Builds the augmented graph, enumerates *its* no-edge-repeating paths,
    and removes every path that involves the virtual vertex — "by simply
    removing all the enumerated paths that go through vs, we can obtain
    the GJP of the original GJ".  Provided as a constructive validation of
    the proof; produces exactly :func:`enumerate_paths`' output.
    """
    odd = graph.odd_degree_vertices()
    if len(odd) <= 2:
        return enumerate_paths(graph, max_hops=max_hops)
    augmented, virtual_ids = add_virtual_vertex(graph)
    banned = set(virtual_ids)
    kept = []
    for start, end, path in enumerate_paths(augmented, max_hops=max_hops):
        if VIRTUAL_VERTEX in (start, end):
            continue
        if banned & set(path):
            continue
        kept.append((start, end, path))
    return sorted(kept)


def subpath_of_some_trail(graph: JoinGraph, path: Sequence[int]) -> bool:
    """Is ``path`` an ordered sub-sequence of some Eulerian trail?

    Section 3.2's observation: when GJ has an Eulerian trail, any
    no-edge-repeating path between two vertices is a "sub-path" of one.
    The containment is order-preserving but not necessarily contiguous —
    a closed detour like Figure 1's path {theta1, theta2, theta3} appears
    inside the circuit (1, 2, 4, 6, 5, 3) with other edges interleaved.
    Either traversal direction of ``path`` counts.  Used by tests to
    validate the claim on concrete graphs.
    """
    forward = tuple(path)
    backward = tuple(reversed(forward))
    for _start, trail in eulerian_trails(graph):
        if _is_subsequence(forward, trail) or _is_subsequence(backward, trail):
            return True
    return False


def _is_subsequence(needle: Tuple[int, ...], haystack: Tuple[int, ...]) -> bool:
    iterator = iter(haystack)
    return all(edge in iterator for edge in needle)
