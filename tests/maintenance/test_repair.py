"""Tests for §3.3 failure repair."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.errors import InvalidParameterError
from repro.maintenance.repair import failure_role, repair
from repro.net.generators import grid_graph, path_graph, two_cliques_bridge
from repro.net.graph import Graph

from ..conftest import connected_graphs


def backbone_for(g, k=1, alg="AC-LMST"):
    return build_backbone(khop_cluster(g, k), alg)


class TestFailureRole:
    def test_roles_partition_nodes(self):
        res = backbone_for(grid_graph(5, 5), k=1)
        roles = {failure_role(res, u) for u in res.clustering.graph.nodes()}
        assert roles <= {"head", "gateway", "member"}
        assert failure_role(res, res.heads[0]) == "head"


class TestRepairLadder:
    def test_member_failure_no_action(self):
        g = grid_graph(5, 5)
        res = backbone_for(g, k=1)
        member = next(
            u
            for u in g.nodes()
            if failure_role(res, u) == "member" and g.without_nodes([u]).is_connected_subset(
                [v for v in g.nodes() if v != u]
            )
        )
        out = repair(res, member)
        if not out.partitioned and not out.escalated:
            assert out.role == "member"
            assert out.action == "none"
            assert out.scope_heads == frozenset()
            assert out.locality == 1.0

    def test_gateway_failure_local_fix(self):
        g = grid_graph(6, 6)
        res = backbone_for(g, k=2)
        gateways = sorted(res.gateways)
        assert gateways
        out = repair(res, gateways[0])
        assert out.role == "gateway"
        if not out.partitioned and out.action == "gateway-reselect":
            assert out.scope_heads  # some heads re-ran selection
            assert out.backbone is not None

    def test_head_failure_reclusters(self):
        g = grid_graph(6, 6)
        res = backbone_for(g, k=2)
        head = res.heads[-1]
        out = repair(res, head)
        assert out.role == "head"
        if not out.partitioned:
            assert out.action == "recluster"
            assert not out.escalated
            assert out.backbone is not None
            assert head not in out.backbone.heads

    def test_partition_detected(self):
        # the middle bridge node disconnects the two cliques
        g = two_cliques_bridge(4, 1)  # bridge node 4 is a cut vertex
        res = backbone_for(g, k=1)
        out = repair(res, 4)
        assert out.partitioned
        assert out.backbone is None
        assert out.locality == 0.0

    def test_bad_node_rejected(self):
        res = backbone_for(path_graph(6))
        with pytest.raises(InvalidParameterError):
            repair(res, 17)

    def test_member_failure_splices_existing_backbone(self):
        # §3.3: a member failure leaves the CDS untouched — the repaired
        # backbone must carry the *same* links and gateways, not a rebuild.
        g = grid_graph(5, 5)
        res = backbone_for(g, k=1)
        for u in g.nodes():
            if failure_role(res, u) != "member":
                continue
            out = repair(res, u)
            if out.action == "none":
                assert out.backbone.selected_links == res.selected_links
                assert out.backbone.gateways == res.gateways
                assert out.backbone.cds == res.cds
                break
        else:  # pragma: no cover - grid always has an absorbable member
            pytest.fail("no member failure with action 'none' found")

    def test_partition_outcome_skips_reduced_graph(self, monkeypatch):
        # Satellite: the reduced graph is built lazily — a failure that
        # partitions the network must return before constructing it.
        g = two_cliques_bridge(4, 1)
        res = backbone_for(g, k=1)

        def boom(self, removed):
            raise AssertionError("reduced graph built for a partition outcome")

        monkeypatch.setattr(Graph, "without_nodes", boom)
        out = repair(res, 4)
        assert out.partitioned and out.backbone is None

    def test_cut_member_escalates_or_partitions(self):
        # path: every interior node is a cut vertex
        g = path_graph(9)
        res = backbone_for(g, k=2)
        for u in range(1, 8):
            out = repair(res, u)
            assert out.partitioned  # removing interior path node splits G

    @given(connected_graphs(min_n=4, max_n=14), st.integers(1, 2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_repair_always_yields_valid_backbone_or_partition(self, g, k, data):
        res = backbone_for(g, k=k)
        node = data.draw(st.integers(0, g.n - 1))
        out = repair(res, node)
        if out.partitioned:
            assert out.backbone is None
        else:
            bb = out.backbone
            assert bb is not None
            # survivors are k-hop dominated and the CDS is connected
            g2 = bb.clustering.graph
            assert g2.is_connected_subset(bb.cds)
            for u in g2.nodes():
                if u == node:
                    continue
                assert any(
                    g2.hop_distance(u, h) <= k for h in bb.heads
                )
            assert node not in bb.cds


class TestSurvivorsConnected:
    """The vectorized CSR reachability pass vs a reference Python sweep."""

    @staticmethod
    def _reference(graph, gone):
        survivors = [u for u in graph.nodes() if u not in gone]
        if len(survivors) <= 1:
            return True
        root = survivors[0]
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in graph.neighbors(x):
                if y not in gone and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(survivors)

    @given(connected_graphs(min_n=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sweep(self, g, data):
        from repro.maintenance.repair import _survivors_connected

        gone = set(
            data.draw(
                st.lists(
                    st.integers(0, g.n - 1), max_size=g.n - 1, unique=True
                )
            )
        )
        assert _survivors_connected(g, gone) == self._reference(g, gone)

    def test_bridge_removal_partitions(self):
        from repro.maintenance.repair import _survivors_connected

        g = two_cliques_bridge(4, 2)  # cliques joined by the path 0-4-5-6
        assert _survivors_connected(g, set()) is True
        assert _survivors_connected(g, {4}) is False
        assert _survivors_connected(g, {5}) is False

    def test_all_but_one_gone(self):
        from repro.maintenance.repair import _survivors_connected

        g = path_graph(5)
        assert _survivors_connected(g, {0, 1, 2, 3}) is True
        assert _survivors_connected(g, set(range(5))) is True


class TestGatewaySplice:
    """The gateway splice must be routing-indistinguishable from a rebuild."""

    def test_spliced_walks_match_rebuild(self):
        import numpy as np

        from repro.maintenance.repair import (
            _seeded_path_oracle,
            _strip_nodes,
        )
        from repro.net.topology import random_topology
        from repro.traffic.router import BatchRouter
        from repro.traffic.workloads import uniform_pairs

        topo = random_topology(100, degree=7.0, seed=3)
        g = topo.graph
        res = backbone_for(g, k=2)
        node = next(
            gw
            for gw in sorted(res.gateways)
            if repair(res, gw).spliced
        )
        out = repair(res, node)
        assert out.spliced and out.action == "gateway-reselect"
        assert out.backbone is not None

        # The comparator is the ladder's own fallback: a full pipeline
        # rebuild on the stripped clustering with the seeded oracle.
        gone = {node}
        graph2 = g.without_nodes([node])
        surviving = _strip_nodes(res.clustering, graph2, gone)
        rebuilt = build_backbone(
            surviving,
            res.algorithm,
            oracle=_seeded_path_oracle(graph2, res, gone),
        )

        alive = np.ones(g.n, dtype=bool)
        alive[node] = False
        wl = uniform_pairs(g.n, 300, seed=17).restrict(alive)
        assert wl.sources.size > 0
        spliced_walks = BatchRouter(out.backbone).route_flows(wl).walks
        rebuilt_walks = BatchRouter(rebuilt).route_flows(wl).walks
        assert spliced_walks == rebuilt_walks

    def test_inherited_router_walks_match_rebuild(self):
        # The lifetime loop's gateway rung: after a spliced repair the
        # new router inherits with an *empty* changed-heads mask (the
        # splice certifies link set + weights unchanged), must actually
        # carry head-graph state across, and still route identically to
        # a from-scratch router on a full pipeline rebuild.
        import numpy as np

        from repro.maintenance.repair import (
            _seeded_path_oracle,
            _strip_nodes,
        )
        from repro.net.topology import random_topology
        from repro.traffic.router import BatchRouter
        from repro.traffic.workloads import uniform_pairs

        topo = random_topology(100, degree=7.0, seed=3)
        g = topo.graph
        res = backbone_for(g, k=2)
        node = next(
            gw for gw in sorted(res.gateways) if repair(res, gw).spliced
        )
        alive = np.ones(g.n, dtype=bool)
        alive[node] = False
        wl = uniform_pairs(g.n, 300, seed=19).restrict(alive)

        old_router = BatchRouter(res)
        old_router.route_flows(wl)  # warm the caches worth inheriting
        out = repair(res, node)
        assert out.spliced

        router = BatchRouter(out.backbone)
        stats = router.inherit_edge_delta(old_router, (node,))
        assert stats["trees"] > 0  # the mask no longer discards them

        gone = {node}
        graph2 = g.without_nodes([node])
        rebuilt = build_backbone(
            _strip_nodes(res.clustering, graph2, gone),
            res.algorithm,
            oracle=_seeded_path_oracle(graph2, res, gone),
        )
        assert router.route_flows(wl).walks == (
            BatchRouter(rebuilt).route_flows(wl).walks
        )

    def test_splice_preserves_link_weights(self):
        from repro.net.topology import random_topology

        topo = random_topology(100, degree=7.0, seed=5)
        res = backbone_for(topo.graph, k=2)
        node = next(
            gw
            for gw in sorted(res.gateways)
            if repair(res, gw).spliced
        )
        out = repair(res, node)
        old = {
            (link.u, link.v): link.weight
            for link in res.virtual_graph.links()
        }
        for link in out.backbone.virtual_graph.links():
            assert old[(link.u, link.v)] == link.weight


class TestPartitionBoundary:
    def test_ensure_survivors_connected_passes_when_whole(self):
        from repro.maintenance.repair import ensure_survivors_connected

        ensure_survivors_connected(two_cliques_bridge(4, 2), set())

    def test_partition_error_carries_components(self):
        from repro.errors import PartitionError
        from repro.maintenance.repair import ensure_survivors_connected

        g = path_graph(5)
        with pytest.raises(PartitionError) as exc:
            ensure_survivors_connected(g, {2})
        comps = exc.value.components
        assert {frozenset(c) for c in comps} == {
            frozenset({0, 1}),
            frozenset({3, 4}),
        }
        # Largest first is part of the contract.
        assert all(
            len(comps[i]) >= len(comps[i + 1])
            for i in range(len(comps) - 1)
        )


class TestDegradedRepair:
    def bridge_backbone(self, alg="AC-LMST"):
        return backbone_for(two_cliques_bridge(6, 3), k=1, alg=alg)

    def test_partition_falls_back_to_component_local(self):
        from repro.maintenance.repair import degraded_repair

        res = self.bridge_backbone()
        out = degraded_repair(res, 7)  # middle bridge node
        assert out.partitioned and out.degraded
        assert out.action == "degraded"
        assert out.backbone is not None
        assert {frozenset(c) for c in out.components} == {
            frozenset(range(0, 7)),
            frozenset(range(8, 15)),
        }

    def test_degraded_backbone_routes_within_components(self):
        import numpy as np

        from repro.maintenance.repair import degraded_repair
        from repro.traffic.router import BatchRouter
        from repro.traffic.workloads import Workload

        res = self.bridge_backbone()
        out = degraded_repair(res, 7)
        # One flow inside each surviving clique routes fine.
        wl = Workload(
            name="manual",
            n=15,
            sources=np.asarray([1, 9]),
            targets=np.asarray([5, 14]),
            demands=np.asarray([1, 1]),
        )
        routed = BatchRouter(out.backbone).route_flows(wl)
        assert routed.num_flows == 2
        assert all(len(w) >= 2 for w in routed.walks)

    def test_gmst_rejected(self):
        from repro.maintenance.repair import degraded_repair

        res = self.bridge_backbone(alg="G-MST")
        with pytest.raises(InvalidParameterError):
            degraded_repair(res, 7)

    def test_connected_failure_passes_through(self):
        from repro.maintenance.repair import degraded_repair

        res = self.bridge_backbone()
        out = degraded_repair(res, 3)  # clique member, no partition
        assert not out.partitioned and not out.degraded
        assert out.action != "degraded"
