"""Tests for virtual graphs and the gateway algorithms (Mesh/LMST/G-MST)."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.analysis.sweep import CellKey, SweepConfig, _cell_seed
from repro.core.clustering import khop_cluster
from repro.core.gmst import gmst_gateways, gmst_selected_links, gmst_virtual_graph
from repro.core.lmst import lmst_gateways, lmst_selected_links, local_mst_edges
from repro.core.mesh import mesh_gateways, mesh_selected_links
from repro.core.neighbor import ancr_neighbors, nc_neighbors
from repro.core.pipeline import build_backbone
from repro.core.virtual_graph import VirtualGraph, VirtualLink
from repro.core.wulou import wu_lou_gateways
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.net.generators import grid_graph, path_graph, two_cliques_bridge
from repro.net.graph import Graph
from repro.net.paths import PathOracle, canonical_path
from repro.net.topology import random_topology

from ..conftest import connected_graphs, ks


def _vgraph(g, k, rule="AC"):
    cl = khop_cluster(g, k)
    oracle = PathOracle(g)
    nmap = ancr_neighbors(cl) if rule == "AC" else nc_neighbors(cl)
    return cl, VirtualGraph.from_neighbor_map(cl, nmap, oracle)


class TestVirtualLink:
    def test_weight_and_interior(self):
        link = VirtualLink(0, 3, (0, 5, 7, 3))
        assert link.weight == 3
        assert link.interior == (5, 7)
        assert link.order_key() == (3, 0, 3)
        assert link.other(0) == 3 and link.other(3) == 0

    def test_invalid_orientation(self):
        with pytest.raises(InvalidParameterError):
            VirtualLink(3, 0, (3, 1, 0))
        with pytest.raises(InvalidParameterError):
            VirtualLink(0, 3, (0, 1, 2))  # path must end at v

    def test_other_rejects_non_endpoint(self):
        link = VirtualLink(0, 3, (0, 1, 3))
        with pytest.raises(InvalidParameterError):
            link.other(1)


class TestVirtualGraph:
    def test_from_neighbor_map_path(self):
        g = path_graph(6)
        cl, vg = _vgraph(g, 1)
        assert vg.heads == (0, 2, 4)
        assert vg.num_links == 2
        assert vg.has_link(0, 2) and vg.has_link(2, 4)
        assert not vg.has_link(0, 4)
        assert vg.link(0, 2).path == (0, 1, 2)
        assert vg.neighbors(2) == (0, 4)
        assert vg.weight(0, 2) == 2
        assert vg.is_connected()

    def test_gateways_for(self):
        g = path_graph(6)
        _, vg = _vgraph(g, 1)
        assert vg.gateways_for([(0, 2)]) == frozenset({1})
        assert vg.gateways_for([]) == frozenset()

    def test_non_head_endpoint_rejected(self):
        with pytest.raises(InvalidParameterError):
            VirtualGraph([0, 2], [VirtualLink(0, 5, (0, 1, 5))])

    @given(connected_graphs(), ks)
    @settings(max_examples=40, deadline=None)
    def test_interiors_never_heads(self, g, k):
        cl, vg = _vgraph(g, k)
        heads = set(cl.heads)
        for link in vg.links():
            assert not (set(link.interior) & heads)

    @given(connected_graphs(), ks)
    @settings(max_examples=40, deadline=None)
    def test_ac_virtual_graph_connected(self, g, k):
        _, vg = _vgraph(g, k, "AC")
        assert vg.is_connected()


class TestMesh:
    def test_keeps_all_links(self):
        g = path_graph(6)
        _, vg = _vgraph(g, 1)
        assert mesh_selected_links(vg) == {(0, 2), (2, 4)}
        assert mesh_gateways(vg) == frozenset({1, 3})

    @given(connected_graphs(), ks)
    @settings(max_examples=40, deadline=None)
    def test_ac_mesh_subset_of_nc_mesh(self, g, k):
        cl = khop_cluster(g, k)
        oracle = PathOracle(g)
        vg_nc = VirtualGraph.from_neighbor_map(cl, nc_neighbors(cl), oracle)
        vg_ac = VirtualGraph.from_neighbor_map(cl, ancr_neighbors(cl), oracle)
        assert mesh_gateways(vg_ac) <= mesh_gateways(vg_nc)


class TestLMST:
    def test_local_mst_is_spanning(self):
        g = grid_graph(5, 5)
        cl, vg = _vgraph(g, 1)
        for h in vg.heads:
            edges = local_mst_edges(vg, h)
            view = {h, *vg.neighbors(h)}
            assert len(edges) == len(view) - 1  # spanning tree of the view

    def test_lmst_selected_subset_of_mesh(self):
        g = grid_graph(6, 6)
        _, vg = _vgraph(g, 1)
        assert lmst_selected_links(vg) <= mesh_selected_links(vg)

    def test_path_lmst_equals_mesh_on_chain(self):
        # on a chain of clusters every link is a tree edge
        g = path_graph(10)
        _, vg = _vgraph(g, 1)
        assert lmst_selected_links(vg) == mesh_selected_links(vg)

    @given(connected_graphs(), ks)
    @settings(max_examples=50, deadline=None)
    def test_lmst_gateways_subset_of_mesh(self, g, k):
        _, vg = _vgraph(g, k)
        assert lmst_gateways(vg) <= mesh_gateways(vg)

    @given(connected_graphs(), ks)
    @settings(max_examples=50, deadline=None)
    def test_theorem2_lmst_links_connect_heads(self, g, k):
        """Theorem 2: LMSTGA-selected links span all clusterheads."""
        from repro.core.neighbor import cluster_graph_connected

        cl, vg = _vgraph(g, k)
        selected = lmst_selected_links(vg)
        assert cluster_graph_connected(cl.heads, selected)


#: The paper sweep's 48 cells (Figs. 5-6: D 6/10, k 1-4, N 50-200).
PAPER = SweepConfig()
PAPER_CELLS = [
    CellKey(n, d, k) for d in (6.0, 10.0) for k in PAPER.ks for n in PAPER.ns
]


def _reference_gmst_links(g, heads) -> set:
    """The unique ``(hops, min_id, max_id)`` MST of the heads' metric
    closure, weighed by networkx shortest-path lengths.

    Each weight packs the strict order into one integer, so every closure
    link weighs differently and networkx's MST is the unique one.
    """
    nxg = g.to_networkx()
    closure = nx.Graph()
    closure.add_nodes_from(heads)
    for i, a in enumerate(heads):
        lengths = nx.single_source_shortest_path_length(nxg, a)
        for b in heads[i + 1 :]:
            closure.add_edge(a, b, key=(lengths[b] * g.n + a) * g.n + b)
    tree = nx.minimum_spanning_edges(closure, weight="key", data=False)
    return {(min(a, b), max(a, b)) for a, b in tree}


def _assert_gmst_matches_reference(g, k):
    """G-MST's links are the reference MST; its gateways their interiors."""
    cl = khop_cluster(g, k)
    res = build_backbone(cl, "G-MST")
    links = _reference_gmst_links(g, cl.heads)
    assert res.selected_links == links
    assert {(link.u, link.v) for link in res.virtual_graph.links()} == links
    assert res.gateways == {
        w for a, b in links for w in canonical_path(g, a, b)[1:-1]
    }


class TestGMST:
    def test_tree_size(self):
        g = grid_graph(6, 6)
        cl = khop_cluster(g, 1)
        vg = gmst_virtual_graph(cl, PathOracle(g))
        links = gmst_selected_links(vg)
        assert len(links) == len(cl.heads) - 1

    def test_single_head(self):
        g = grid_graph(2, 2)
        cl = khop_cluster(g, 2)
        vg = gmst_virtual_graph(cl, PathOracle(g))
        assert gmst_selected_links(vg) == set()
        assert gmst_gateways(vg) == frozenset()

    @given(connected_graphs(), ks)
    @settings(max_examples=40, deadline=None)
    def test_gmst_is_spanning_tree(self, g, k):
        from repro.core.neighbor import cluster_graph_connected

        cl = khop_cluster(g, k)
        vg = gmst_virtual_graph(cl, PathOracle(g))
        links = gmst_selected_links(vg)
        assert len(links) == max(0, len(cl.heads) - 1)
        assert cluster_graph_connected(cl.heads, links)

    @given(connected_graphs(), ks)
    @settings(max_examples=30, deadline=None)
    def test_gmst_matches_networkx_closure_mst(self, g, k):
        _assert_gmst_matches_reference(g, k)

    @pytest.mark.parametrize(
        "key", PAPER_CELLS, ids=lambda c: f"n{c.n}-d{c.degree:g}-k{c.k}"
    )
    def test_gmst_matches_reference_on_paper_cells(self, key):
        # Trial 0 of each cell, drawn as the paper sweep draws it.
        seed = _cell_seed(PAPER.base_seed, key, 0)
        topo = random_topology(key.n, key.degree, seed=seed)
        _assert_gmst_matches_reference(topo.graph, key.k)

    def test_two_components_raise(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        cl = khop_cluster(g, 1, require_connected=False)
        with pytest.raises(DisconnectedGraphError):
            build_backbone(cl, "G-MST")


class TestWuLouGateways:
    def test_requires_k1(self):
        g = path_graph(8)
        cl = khop_cluster(g, 2)
        with pytest.raises(InvalidParameterError):
            wu_lou_gateways(cl, PathOracle(g))

    def test_connects_backbone_on_examples(self):
        for g in (path_graph(10), grid_graph(5, 5), two_cliques_bridge(4, 4)):
            cl = khop_cluster(g, 1)
            gws = wu_lou_gateways(cl, PathOracle(g))
            cds = set(cl.heads) | set(gws)
            assert g.is_connected_subset(cds)

    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_wu_lou_backbone_connected(self, g):
        cl = khop_cluster(g, 1)
        gws = wu_lou_gateways(cl, PathOracle(g))
        assert g.is_connected_subset(set(cl.heads) | set(gws))
