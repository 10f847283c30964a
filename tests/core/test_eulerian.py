"""Tests for Eulerian-trail machinery (Section 3.2 / Theorem 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eulerian import (
    MAX_EDGES_FOR_ENUMERATION,
    VIRTUAL_VERTEX,
    add_virtual_vertex,
    count_eulerian_trails,
    eulerian_circuits,
    eulerian_trails,
    is_eulerian_trail,
    paths_via_virtual_vertex,
    subpath_of_some_trail,
)
from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import (
    CandidateCost,
    build_join_path_graph,
    enumerate_paths,
)
from repro.errors import PlanningError

from tests.core.test_join_graph import fig1_graph


def path_graph(n: int) -> JoinGraph:
    """v1 - v2 - ... - vn: exactly one Eulerian trail (per direction)."""
    return JoinGraph(
        [f"v{i}" for i in range(1, n + 1)],
        {i: (f"v{i}", f"v{i + 1}") for i in range(1, n)},
    )


def triangle() -> JoinGraph:
    return JoinGraph(["a", "b", "c"], {1: ("a", "b"), 2: ("b", "c"), 3: ("a", "c")})


def star4() -> JoinGraph:
    """Center connected to 4 leaves: 4 odd-degree leaves, no Eulerian trail."""
    return JoinGraph(
        ["hub", "p", "q", "r", "s"],
        {1: ("hub", "p"), 2: ("hub", "q"), 3: ("hub", "r"), 4: ("hub", "s")},
    )


class TestTrails:
    def test_path_graph_has_two_directed_trails(self):
        graph = path_graph(4)
        trails = eulerian_trails(graph)
        # One trail starting at each odd end.
        assert len(trails) == 2
        starts = {start for start, _ in trails}
        assert starts == {"v1", "v4"}

    def test_every_trail_is_valid(self):
        graph = fig1_graph()
        trails = eulerian_trails(graph)
        assert trails, "Figure 1's graph has an Eulerian circuit"
        for start, edge_ids in trails:
            assert is_eulerian_trail(graph, start, edge_ids)

    def test_trail_uses_every_edge_once(self):
        for start, edge_ids in eulerian_trails(triangle()):
            assert sorted(edge_ids) == [1, 2, 3]

    def test_no_trail_in_star(self):
        assert eulerian_trails(star4()) == []
        assert count_eulerian_trails(star4()) == 0

    def test_start_filter(self):
        graph = path_graph(3)
        only_v1 = eulerian_trails(graph, start="v1")
        assert all(start == "v1" for start, _ in only_v1)
        assert len(only_v1) == 1

    def test_refuses_large_graphs(self):
        big = JoinGraph(
            ["x", "y"],
            {i: ("x", "y") for i in range(MAX_EDGES_FOR_ENUMERATION + 1)},
        )
        with pytest.raises(PlanningError):
            eulerian_trails(big)


class TestCircuits:
    def test_fig1_has_circuits_from_every_vertex(self):
        """The paper: 'for every node there exists a closed traversing
        path (or circuit) which covers all the edges exactly once'."""
        graph = fig1_graph()
        for vertex in graph.vertices:
            assert eulerian_circuits(graph, start=vertex)

    def test_circuit_returns_to_start(self):
        graph = triangle()
        for start, edge_ids in eulerian_circuits(graph):
            current = start
            for cid in edge_ids:
                current = graph.other_endpoint(cid, current)
            assert current == start

    def test_open_trail_graph_has_no_circuits(self):
        assert eulerian_circuits(path_graph(4)) == []

    def test_circuits_are_trails(self):
        graph = triangle()
        circuit_set = {t for t in eulerian_circuits(graph)}
        trail_set = {t for t in eulerian_trails(graph)}
        assert circuit_set <= trail_set


class TestIsEulerianTrail:
    def test_rejects_wrong_edge_multiset(self):
        graph = triangle()
        assert not is_eulerian_trail(graph, "a", (1, 2))
        assert not is_eulerian_trail(graph, "a", (1, 1, 2))

    def test_rejects_disconnected_sequence(self):
        graph = path_graph(4)  # edges 1:(v1,v2) 2:(v2,v3) 3:(v3,v4)
        assert not is_eulerian_trail(graph, "v1", (1, 3, 2))

    def test_accepts_valid(self):
        graph = path_graph(4)
        assert is_eulerian_trail(graph, "v1", (1, 2, 3))
        assert is_eulerian_trail(graph, "v4", (3, 2, 1))


class TestVirtualVertex:
    def test_star_gets_eulerified(self):
        graph = star4()
        augmented, virtual_ids = add_virtual_vertex(graph)
        assert augmented.has_eulerian_trail()
        # r = 4 odd vertices -> r - 1 = 3 virtual edges.
        assert len(virtual_ids) == 3
        assert VIRTUAL_VERTEX in augmented.vertices

    def test_remaining_odd_vertices(self):
        graph = star4()
        augmented, _ = add_virtual_vertex(graph)
        odd = set(augmented.odd_degree_vertices())
        assert len(odd) == 2
        assert VIRTUAL_VERTEX in odd

    def test_rejects_already_eulerian(self):
        with pytest.raises(PlanningError):
            add_virtual_vertex(fig1_graph())
        with pytest.raises(PlanningError):
            add_virtual_vertex(path_graph(3))

    def test_theorem1_detour_equals_direct_enumeration(self):
        """Filtering vs-paths from the augmented graph recovers exactly
        the original graph's path set (Theorem 1's proof, Figure 2)."""
        graph = star4()
        assert paths_via_virtual_vertex(graph) == enumerate_paths(graph)

    def test_detour_on_eulerian_graph_is_passthrough(self):
        graph = fig1_graph()
        assert paths_via_virtual_vertex(graph) == enumerate_paths(graph)

    def test_detour_on_double_star(self):
        """Two hubs sharing a bridge: 4 odd vertices, richer path set."""
        graph = JoinGraph(
            ["h1", "h2", "a", "b", "c", "d"],
            {
                1: ("h1", "a"),
                2: ("h1", "b"),
                3: ("h1", "h2"),
                4: ("h2", "c"),
                5: ("h2", "d"),
            },
        )
        assert len(graph.odd_degree_vertices()) == 6
        assert paths_via_virtual_vertex(graph) == enumerate_paths(graph)


class TestSubpathClaim:
    def test_every_path_is_subpath_of_a_trail_fig1(self):
        """Section 3.2: with an Eulerian trail present, every
        no-edge-repeating path is a sub-path of some Eulerian trail."""
        graph = fig1_graph()
        for _start, _end, path in enumerate_paths(graph):
            assert subpath_of_some_trail(graph, path), path

    def test_every_path_is_subpath_of_a_trail_triangle(self):
        graph = triangle()
        for _start, _end, path in enumerate_paths(graph):
            assert subpath_of_some_trail(graph, path), path


class TestExactJoinPathGraph:
    """Definition 3's full GJP: Algorithm 2's builder with pruning off."""

    def evaluator(self, path):
        return CandidateCost(time_s=float(len(path)), reducers=len(path))

    def unpruned(self, graph, **kwargs):
        return build_join_path_graph(
            graph, self.evaluator, apply_pruning=False, **kwargs
        )

    def test_candidate_per_path(self):
        graph = fig1_graph()
        gjp = self.unpruned(graph)
        assert len(gjp) == len(enumerate_paths(graph))
        assert gjp.pruned == 0

    def test_sufficient(self):
        gjp = self.unpruned(fig1_graph())
        assert gjp.is_sufficient()

    def test_max_hops_respected(self):
        gjp = self.unpruned(fig1_graph(), max_hops=2)
        assert all(c.hop_count <= 2 for c in gjp)


# ---------------------------------------------------------------------------
# Property-based: random small multigraphs
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw):
    """Connected multigraphs with 3-5 vertices and 3-7 edges."""
    num_vertices = draw(st.integers(min_value=3, max_value=5))
    vertices = [f"n{i}" for i in range(num_vertices)]
    # A spanning path keeps the graph connected...
    edges = {}
    next_id = 1
    for i in range(num_vertices - 1):
        edges[next_id] = (vertices[i], vertices[i + 1])
        next_id += 1
    # ... plus random extra edges.
    extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        a = draw(st.sampled_from(vertices))
        b = draw(st.sampled_from([v for v in vertices if v != a]))
        edges[next_id] = (a, b)
        next_id += 1
    return JoinGraph(vertices, edges)


class TestProperties:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_trail_existence_matches_degree_parity(self, graph):
        trails = eulerian_trails(graph)
        if graph.has_eulerian_trail():
            assert trails
        else:
            assert trails == []

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_all_enumerated_trails_are_valid(self, graph):
        for start, edge_ids in eulerian_trails(graph):
            assert is_eulerian_trail(graph, start, edge_ids)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_virtual_vertex_detour_always_matches(self, graph):
        assert paths_via_virtual_vertex(graph) == enumerate_paths(graph)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_circuits_close_and_trails_cover(self, graph):
        for start, edge_ids in eulerian_circuits(graph):
            assert sorted(edge_ids) == list(graph.edge_ids)
            current = start
            for cid in edge_ids:
                current = graph.other_endpoint(cid, current)
            assert current == start
