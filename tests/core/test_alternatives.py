"""Tests for the related-work baselines: Max-Min d-cluster and k-clusters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import khop_cluster
from repro.core.kcluster import k_clusters, kcluster_stats, power_graph
from repro.core.maxmin import maxmin_cluster
from repro.core.validate import check_dominating, check_partition
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.net.generators import complete_graph, cycle_graph, grid_graph, path_graph
from repro.net.graph import Graph

from ..conftest import connected_graphs


class TestMaxMin:
    def test_invalid_d(self):
        with pytest.raises(InvalidParameterError):
            maxmin_cluster(path_graph(4), 0)

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            maxmin_cluster(Graph(4, [(0, 1)]), 1)

    def test_single_node(self):
        cl = maxmin_cluster(Graph(1), 2)
        assert cl.heads == (0,)

    def test_complete_graph_one_head(self):
        cl = maxmin_cluster(complete_graph(6), 1)
        # the max ID (5) floods everywhere, then floods back: single head
        assert len(cl.heads) == 1

    def test_path_dominating(self):
        for d in (1, 2, 3):
            cl = maxmin_cluster(path_graph(12), d)
            check_partition(cl)
            check_dominating(cl)

    def test_provenance(self):
        cl = maxmin_cluster(grid_graph(4, 4), 2)
        assert cl.priority_name == "maxmin"
        assert cl.rounds == 4  # 2d synchronous rounds

    @given(connected_graphs(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_always_partition_and_dominating(self, g, d):
        cl = maxmin_cluster(g, d)
        check_partition(cl)
        check_dominating(cl)

    @given(connected_graphs(min_n=6, max_n=16), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_comparison_with_lowest_id(self, g, d):
        """Max-Min lacks the independent-set guarantee; both dominate."""
        mm = maxmin_cluster(g, d)
        li = khop_cluster(g, d)
        check_dominating(mm)
        check_dominating(li)
        # both produce at least one head; element counts are comparable
        assert mm.num_clusters >= 1 and li.num_clusters >= 1


class TestKClusters:
    def test_power_graph_path(self):
        g = path_graph(4)
        h = power_graph(g, 2)
        assert h.has_edge(0, 2) and h.has_edge(1, 3)
        assert not h.has_edge(0, 3)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            power_graph(path_graph(3), 0)

    def test_path_k1_clusters_are_edges(self):
        clusters = k_clusters(path_graph(4), 1)
        assert set(clusters) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_clusters_overlap(self):
        stats = kcluster_stats(cycle_graph(8), 2)
        assert stats["mean_multiplicity"] > 1.0  # overlapping by design
        assert stats["num_clusters"] >= 2

    def test_complete_graph_single_cluster(self):
        clusters = k_clusters(complete_graph(5), 1)
        assert clusters == [frozenset(range(5))]

    @given(connected_graphs(max_n=12), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_definitional_properties(self, g, k):
        """Every k-cluster is mutually k-reachable and maximal."""
        dist = g.oracle.rows(range(g.n))
        clusters = k_clusters(g, k)
        # covers every node
        covered = set().union(*clusters) if clusters else set()
        assert covered == set(g.nodes())
        for c in clusters:
            members = sorted(c)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert dist[u, v] <= k
            # maximality: no outside node is within k of all members
            for w in g.nodes():
                if w not in c:
                    assert any(dist[w, u] > k for u in members)

    @given(connected_graphs(max_n=12), st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_paper_definition_is_disjoint_krishna_is_not(self, g, k):
        """The §1 contrast: our clusters partition, k-clusters overlap."""
        li = khop_cluster(g, k)
        sizes = sum(len(li.members(h)) for h in li.heads)
        assert sizes == g.n  # disjoint cover
        stats = kcluster_stats(g, k)
        assert stats["mean_multiplicity"] >= 1.0
