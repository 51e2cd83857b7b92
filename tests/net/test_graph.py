"""Unit and property tests for repro.net.graph.Graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.net.graph import UNREACHABLE, Graph
from repro.net.generators import cycle_graph, grid_graph, path_graph, star_graph

from ..conftest import connected_graphs


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.is_connected()

    def test_single_node(self):
        g = Graph(1)
        assert g.n == 1 and g.m == 0
        assert g.neighbors(0) == ()

    def test_duplicate_and_reversed_edges_normalize(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.m == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 2)])

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(-1)

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (0, 3), (1, 0)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        c = Graph(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_from_edge_list_infers_n(self):
        g = Graph.from_edge_list([(0, 4), (2, 1)])
        assert g.n == 5 and g.m == 2


class TestAccessors:
    def test_degree_and_average(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.degree(1) == 1
        assert g.average_degree() == pytest.approx(2 * 4 / 5)

    def test_has_edge(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_len_and_iter(self):
        g = path_graph(4)
        assert len(g) == 4
        assert list(g) == [0, 1, 2, 3]


class TestDistances:
    def test_path_graph_distances(self):
        g = path_graph(5)
        assert g.hop_distance(0, 4) == 4
        assert g.hop_distance(2, 2) == 0
        assert g.bfs_distances(0).tolist() == [0, 1, 2, 3, 4]

    def test_cycle_distances(self):
        g = cycle_graph(6)
        assert g.hop_distance(0, 3) == 3
        assert g.hop_distance(0, 5) == 1

    def test_grid_distances_manhattan(self):
        g = grid_graph(3, 4)  # node r*4+c
        assert g.hop_distance(0, 11) == 2 + 3

    def test_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert g.hop_distance(0, 2) == UNREACHABLE

    def test_diameter_path(self):
        assert path_graph(7).diameter() == 6

    def test_diameter_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(2).diameter()

    def test_eccentricity(self):
        g = path_graph(5)
        assert g.eccentricity(0) == 4
        assert g.eccentricity(2) == 2

    @given(connected_graphs())
    @settings(max_examples=40)
    def test_distance_matrix_symmetric_and_triangle(self, g):
        d = g.oracle.rows(range(g.n))
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        # triangle inequality on a sample of triples
        n = g.n
        for u in range(min(n, 5)):
            for v in range(min(n, 5)):
                for w in range(min(n, 5)):
                    assert d[u, w] <= d[u, v] + d[v, w]

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_adjacent_iff_distance_one(self, g):
        d = g.oracle.rows(range(g.n))
        for u, v in g.edges:
            assert d[u, v] == 1
        for u in range(g.n):
            for v in g.neighbors(u):
                assert d[u, v] == 1


class TestNeighborhoods:
    def test_khop_path(self):
        g = path_graph(7)
        assert g.khop_neighbors(3, 2) == (1, 2, 4, 5)
        assert g.closed_khop_neighbors(3, 1) == (2, 3, 4)

    def test_khop_zero(self):
        g = path_graph(3)
        assert g.khop_neighbors(1, 0) == ()
        assert g.closed_khop_neighbors(1, 0) == (1,)

    def test_khop_negative_raises(self):
        with pytest.raises(InvalidParameterError):
            path_graph(3).khop_neighbors(0, -1)

    def test_nodes_within_multi_source(self):
        g = path_graph(10)
        assert g.nodes_within([0, 9], 1) == (0, 1, 8, 9)
        assert g.nodes_within([], 2) == ()

    @given(connected_graphs(), st.integers(1, 4))
    @settings(max_examples=30)
    def test_khop_symmetry(self, g, k):
        for u in range(g.n):
            for v in g.khop_neighbors(u, k):
                assert u in g.khop_neighbors(v, k)


class TestConnectivity:
    def test_connected_examples(self):
        assert path_graph(5).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [(0, 1), (2, 3), (4,)]

    def test_connected_subset(self):
        g = path_graph(5)
        assert g.is_connected_subset([1, 2, 3])
        assert not g.is_connected_subset([0, 2])
        assert g.is_connected_subset([])
        assert g.is_connected_subset([3])

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_generated_graphs_connected(self, g):
        assert g.is_connected()
        assert len(g.connected_components()) == 1


class TestDerivedGraphs:
    def test_without_nodes_preserves_numbering(self):
        g = path_graph(5)
        g2 = g.without_nodes([2])
        assert g2.n == 5
        assert g2.degree(2) == 0
        assert not g2.is_connected()

    def test_without_nodes_bad_node(self):
        with pytest.raises(InvalidParameterError):
            path_graph(3).without_nodes([7])

    @given(connected_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_node_fast_path_matches_generic(self, g, data):
        # The incremental single-node route must be indistinguishable from
        # a from-scratch rebuild: same edges, adjacency, and CSR arrays.
        x = data.draw(st.integers(0, g.n - 1))
        g.oracle.row(0)  # warm a cache so the delta carries it
        fast = g.without_nodes([x])
        generic = Graph(g.n, [e for e in g.edges if x not in e])
        assert fast == generic
        for u in range(g.n):
            assert fast.neighbors(u) == generic.neighbors(u)
        fi, fx = fast.csr_adjacency
        gi, gx = generic.csr_adjacency
        assert np.array_equal(fi, gi) and np.array_equal(fx, gx)
        # distance answers agree with a cold oracle on the rebuilt graph
        for u in range(g.n):
            assert np.array_equal(fast.bfs_distances(u), generic.bfs_distances(u))

    def test_multi_node_removal_unchanged(self):
        g = cycle_graph(6)
        g2 = g.without_nodes([0, 3])
        assert g2.degree(0) == 0 and g2.degree(3) == 0
        assert g2.has_edge(1, 2) and g2.has_edge(4, 5)

    def test_fast_path_inherits_oracle_caches(self):
        g = grid_graph(6, 6).use_distance_backend("lazy")
        corner, far = 0, 35
        g.oracle.ball(corner, 1)  # far from the removal: survives
        g.oracle.ball(far, 1)
        g2 = g.without_nodes([14])
        stats = g2.oracle.stats()
        assert stats.balls_inherited == 2
        assert stats.balls_computed == 0
        nodes, _ = g2.oracle.ball(corner, 1)
        assert nodes.tolist() == [0, 1, 6]

    def test_fast_path_drops_invalidated_balls(self):
        g = path_graph(6).use_distance_backend("lazy")
        g.oracle.ball(2, 2)  # contains node 3 at distance 1 -> must drop
        g.oracle.ball(5, 1)  # contains only {4, 5} -> survives
        g2 = g.without_nodes([3])
        stats = g2.oracle.stats()
        assert stats.balls_inherited == 1
        nodes, dists = g2.oracle.ball(2, 2)  # recomputed on the new graph
        assert nodes.tolist() == [0, 1, 2]
        assert dists.tolist() == [2, 1, 0]

    def test_fast_path_patches_boundary_balls(self):
        g = path_graph(5).use_distance_backend("lazy")
        g.oracle.ball(0, 2)  # {0,1,2}; node 2 sits exactly on the boundary
        g2 = g.without_nodes([2])
        stats = g2.oracle.stats()
        assert stats.balls_inherited == 1
        nodes, dists = g2.oracle.ball(0, 2)
        assert nodes.tolist() == [0, 1]
        assert dists.tolist() == [0, 1]
        assert g2.oracle.stats().balls_computed == 0  # patched, not re-run

    def test_fast_path_inherits_rows_of_other_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).use_distance_backend(
            "lazy"
        )
        g.oracle.row(0)  # cannot reach 4: survives its removal
        g.oracle.row(3)  # can reach 4: must be dropped
        g2 = g.without_nodes([4])
        stats = g2.oracle.stats()
        assert stats.rows_inherited == 1
        assert g2.oracle.distance(3, 5) == UNREACHABLE
        assert g2.oracle.distance(0, 2) == 2


class TestConversions:
    def test_networkx_roundtrip(self):
        g = grid_graph(3, 3)
        nx_g = g.to_networkx()
        back = Graph.from_networkx(nx_g)
        assert back == g

    def test_from_networkx_bad_labels(self):
        import networkx as nx

        h = nx.Graph()
        h.add_edge("a", "b")
        with pytest.raises(InvalidParameterError):
            Graph.from_networkx(h)

    @given(connected_graphs())
    @settings(max_examples=20)
    def test_distances_match_networkx(self, g):
        import networkx as nx

        nxg = g.to_networkx()
        lengths = dict(nx.all_pairs_shortest_path_length(nxg))
        for u in range(g.n):
            for v in range(g.n):
                assert g.hop_distance(u, v) == lengths[u][v]
