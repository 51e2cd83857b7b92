"""Router inheritance across node arrivals: ``BatchRouter.inherit_edge_delta``.

A member-join arrival leaves the head layer object-identical (the
backbone is ``dataclasses.replace``d with the extended clustering), so
the head router's same-object fast path must carry every tree, head
sequence, and head walk — and the path-oracle legs must survive the
canonical-walk rules.  An arrival is an edge delta whose new nodes count
as touched implicitly, so the inheritance call takes no ``touched``
argument.  Walk identity against a freshly built router is the contract.
"""

import dataclasses

import numpy as np

from repro.core.clustering import admit_nodes, khop_cluster
from repro.core.pipeline import build_backbone
from repro.net.graph import Graph
from repro.net.paths import PathOracle
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs


def _instance(seed=17, n=120):
    topo = random_topology(n, degree=7.0, seed=seed)
    g = Graph(topo.graph.n, topo.graph.edges)
    g.use_distance_backend("lazy")
    return g


def _build(g):
    paths = PathOracle(g)
    backbone = build_backbone(khop_cluster(g, 2), "NC-Mesh", oracle=paths)
    router = BatchRouter(backbone, oracle=paths)
    return backbone, router, paths


class TestRouterNodeAddInheritance:
    def test_member_join_carries_whole_head_layer(self):
        g = _instance()
        backbone, router, paths = _build(g)
        router.route_flows(uniform_pairs(g.n, 300, seed=3), with_shortest=False)
        rng = np.random.default_rng(5)
        attach = sorted(int(u) for u in rng.choice(g.n, size=3, replace=False))
        g2 = g.with_nodes(1, [(u, g.n) for u in attach])
        c2 = admit_nodes(backbone.clustering, g2)
        assert c2.head_of[g.n] != g.n  # a join, not a declaration
        backbone2 = dataclasses.replace(backbone, clustering=c2)
        new_paths = PathOracle(g2)
        router2 = BatchRouter(backbone2, oracle=new_paths)
        stats = router2.inherit_edge_delta(router)
        assert stats["head_graph_unchanged"] == 1
        assert stats["trees"] == len(router.router._trees)
        assert stats["head_seqs"] == len(router.router._head_seqs)
        assert stats["head_walks"] == len(router.router._walks)
        assert stats["legs"] == new_paths.paths_inherited

    def test_inherited_walks_identical_to_fresh(self):
        g = _instance(seed=19)
        backbone, router, paths = _build(g)
        router.route_flows(uniform_pairs(g.n, 250, seed=7), with_shortest=True)
        # attach to a head so the arrival joins (a declared arrival would
        # need the scoped backbone rebuild instead of the fast path)
        attach = [int(backbone.clustering.heads[0]), 5]
        g2 = g.with_nodes(1, [(u, g.n) for u in sorted(set(attach))])
        c2 = admit_nodes(backbone.clustering, g2)
        assert c2.head_of[g.n] != g.n
        backbone2 = dataclasses.replace(backbone, clustering=c2)
        new_paths = PathOracle(g2)
        router2 = BatchRouter(backbone2, oracle=new_paths)
        router2.inherit_edge_delta(router)
        wl = uniform_pairs(g2.n, 250, seed=7)  # post-growth address space
        got = router2.route_flows(wl, with_shortest=True)
        fresh = BatchRouter(backbone2).route_flows(wl, with_shortest=True)
        assert got.walks == fresh.walks
        assert got.head_paths == fresh.head_paths
        assert np.array_equal(got.shortest, fresh.shortest)
        # the grown node itself is routable
        p = router2.route(0, g.n)
        assert p[0] == 0 and p[-1] == g.n

    def test_shared_oracle_skips_leg_inheritance(self):
        g = _instance(seed=23)
        backbone, router, paths = _build(g)
        router.route_flows(uniform_pairs(g.n, 150, seed=9), with_shortest=False)
        router2 = BatchRouter(backbone, oracle=paths)  # same oracle object
        stats = router2.inherit_edge_delta(router)
        assert stats["legs"] == 0


class TestAdmitMember:
    """The O(1) in-place rebind the service growth loop uses per arrival."""

    def _grown(self, seed=19):
        g = _instance(seed=seed)
        backbone, router, paths = _build(g)
        router.route_flows(uniform_pairs(g.n, 250, seed=7), with_shortest=True)
        attach = [int(backbone.clustering.heads[0]), 5]
        g2 = g.with_nodes(1, [(u, g.n) for u in sorted(set(attach))])
        c2 = admit_nodes(backbone.clustering, g2)
        assert c2.head_of[g.n] != g.n  # a join, not a declaration
        backbone2 = dataclasses.replace(backbone, clustering=c2)
        return g, g2, backbone2, router

    def test_walks_identical_to_fresh_build(self):
        g, g2, backbone2, router = self._grown()
        trees_before = router.router._trees
        router.admit_member(backbone2, PathOracle(g2))
        assert router.result is backbone2
        assert router.router._trees is trees_before  # kept, not copied
        wl = uniform_pairs(g2.n, 250, seed=7)
        got = router.route_flows(wl, with_shortest=True)
        fresh = BatchRouter(backbone2).route_flows(wl, with_shortest=True)
        assert got.walks == fresh.walks
        assert got.head_paths == fresh.head_paths
        assert np.array_equal(got.shortest, fresh.shortest)
        p = router.route(0, g.n)
        assert p[0] == 0 and p[-1] == g.n

    def test_rejects_changed_head_graph(self):
        from repro.errors import InvalidParameterError

        import pytest

        g, g2, _, router = self._grown(seed=29)
        rebuilt = build_backbone(khop_cluster(g2, 2), "NC-Mesh")
        with pytest.raises(InvalidParameterError):
            router.admit_member(rebuilt, PathOracle(g2))
