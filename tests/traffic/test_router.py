"""Batch-vs-scalar routing equivalence and router invariants."""

import numpy as np
import pytest

from repro.cds.routing import HeadRouter, route, routing_report
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.errors import InvalidParameterError
from repro.net.oracle import DIST_DTYPE
from repro.net.paths import PathOracle
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter, RoutedFlows
from repro.traffic.workloads import uniform_pairs


@pytest.fixture(scope="module")
def backbone():
    topo = random_topology(150, degree=7.0, seed=13)
    return build_backbone(khop_cluster(topo.graph, 2), "AC-LMST")


class TestHeadRouter:
    def test_head_sequence_matches_scalar_route(self, backbone):
        """The shared Dijkstra tree reproduces the per-call head chains."""
        hr = HeadRouter(backbone)
        oracle = PathOracle(backbone.clustering.graph)
        heads = backbone.heads
        for hs in heads[:5]:
            for ht in heads:
                walk = hr.walk_for_seq(hr.head_sequence(hs, ht))
                assert walk[0] == hs and walk[-1] == ht
                # scalar route between the heads themselves takes the
                # same backbone walk
                assert route(backbone, oracle, hs, ht) == walk

    def test_walk_cached(self, backbone):
        hr = HeadRouter(backbone)
        oracle = PathOracle(backbone.clustering.graph)
        a = hr.walk(oracle, 3, 140)
        b = hr.walk(oracle, 3, 140)
        assert a is b or a == b


class TestBatchEquivalence:
    @pytest.mark.parametrize("pin_backend", [None, "lazy"])
    def test_batch_reproduces_scalar_walks(self, backbone, pin_backend):
        """Every batched walk equals the looped cds.routing.route() walk."""
        g = backbone.clustering.graph
        wl = uniform_pairs(g.n, 400, seed=21)
        previous = g.distance_backend
        if pin_backend:
            g.use_distance_backend(pin_backend)
        try:
            routed = BatchRouter(backbone).route_flows(wl)
            oracle = PathOracle(g)
            for i in range(wl.num_flows):
                s, t = int(wl.sources[i]), int(wl.targets[i])
                assert routed.walks[i] == route(backbone, oracle, s, t), (s, t)
        finally:
            g.use_distance_backend(previous)

    def test_walks_are_real_edge_walks(self, backbone):
        g = backbone.clustering.graph
        wl = uniform_pairs(g.n, 300, seed=22)
        routed = BatchRouter(backbone).route_flows(wl)
        for walk in routed.walks:
            for a, b in zip(walk, walk[1:]):
                assert g.has_edge(a, b)

    def test_hops_and_shortest_consistent(self, backbone):
        g = backbone.clustering.graph
        wl = uniform_pairs(g.n, 300, seed=23)
        routed = BatchRouter(backbone).route_flows(wl)
        assert (routed.hops == [len(w) - 1 for w in routed.walks]).all()
        # walks can never beat the shortest path
        assert (routed.hops >= routed.shortest).all()
        assert (routed.stretches() >= 1.0).all()

    def test_stretch_matches_routing_report(self, backbone):
        """Batch stretch over the report's own sample pairs agrees."""
        g = backbone.clustering.graph
        rng = np.random.default_rng(1)
        pairs = [
            tuple(int(x) for x in rng.choice(g.n, size=2, replace=False))
            for _ in range(50)
        ]
        rep = routing_report(
            backbone, PathOracle(g), samples=50, seed=1
        )
        from repro.traffic.workloads import Workload

        wl = Workload(
            name="sampled",
            n=g.n,
            sources=np.array([p[0] for p in pairs]),
            targets=np.array([p[1] for p in pairs]),
            demands=np.ones(len(pairs), dtype=np.int64),
        )
        routed = BatchRouter(backbone).route_flows(wl)
        stretches = routed.stretches()
        assert float(stretches.mean()) == pytest.approx(rep.mean_stretch)
        assert float(stretches.max()) == pytest.approx(rep.max_stretch)

    def test_intra_cluster_flows_have_empty_head_path(self, backbone):
        cl = backbone.clustering
        g = cl.graph
        wl = uniform_pairs(g.n, 200, seed=24)
        routed = BatchRouter(backbone).route_flows(wl)
        for i in range(wl.num_flows):
            s, t = int(wl.sources[i]), int(wl.targets[i])
            if cl.cluster_of(s) == cl.cluster_of(t):
                assert routed.head_paths[i] == ()
            else:
                assert routed.head_paths[i][0] == cl.cluster_of(s)
                assert routed.head_paths[i][-1] == cl.cluster_of(t)

    def test_rejects_mismatched_workload(self, backbone):
        wl = uniform_pairs(10, 5, seed=25)
        with pytest.raises(InvalidParameterError):
            BatchRouter(backbone).route_flows(wl)

    def test_routed_arrays_are_dist_dtype(self, backbone):
        """PR 6 regression (repro-lint R002): RoutedFlows used to build
        ``hops``/``shortest`` in int64; both are hop counts and belong on
        the oracle's DIST_DTYPE contract — and must stay there however
        the batch is routed."""
        g = backbone.clustering.graph
        wl = uniform_pairs(g.n, 64, seed=26)
        routed = BatchRouter(backbone).route_flows(wl)
        assert routed.hops.dtype == DIST_DTYPE
        assert routed.shortest.dtype == DIST_DTYPE
        skipped = BatchRouter(backbone).route_flows(wl, with_shortest=False)
        assert skipped.shortest.dtype == DIST_DTYPE
        assert skipped.shortest.size == 0
        # stretch stays exact float division, unharmed by the narrowing
        assert routed.stretches().dtype == np.float64


class TestRouterInheritance:
    """Inherited-vs-fresh BatchRouter walk identity across repairs."""

    @staticmethod
    def _warm_router(backbone, flows=400, seed=31):
        g = backbone.clustering.graph
        router = BatchRouter(backbone)
        router.route_flows(uniform_pairs(g.n, flows, seed=seed), with_shortest=False)
        return router

    @staticmethod
    def _surviving_workload(n, dead, flows=400, seed=32):
        alive = np.ones(n, dtype=bool)
        alive[list(dead)] = False
        return uniform_pairs(n, flows, seed=seed).restrict(alive)

    def _assert_identical(self, backbone, inherited, dead):
        wl = self._surviving_workload(backbone.clustering.graph.n, dead)
        got = inherited.route_flows(wl, with_shortest=False)
        want = BatchRouter(backbone).route_flows(wl, with_shortest=False)
        assert got.walks == want.walks
        assert got.head_paths == want.head_paths

    def test_member_death_inherits_everything(self, backbone):
        from repro.maintenance.repair import failure_role, repair

        router = self._warm_router(backbone)
        member = next(
            u
            for u in range(backbone.clustering.graph.n)
            if failure_role(backbone, u) == "member"
        )
        outcome = repair(backbone, member)
        assert outcome.action == "none"
        inherited = BatchRouter(outcome.backbone)
        stats = inherited.inherit_edge_delta(router, (member,))
        assert stats["head_graph_unchanged"] == 1
        assert stats["trees"] > 0
        assert stats["head_walks"] > 0
        assert stats["legs"] > 0
        self._assert_identical(outcome.backbone, inherited, {member})

    def test_head_death_still_produces_identical_walks(self, backbone):
        from repro.maintenance.repair import repair

        router = self._warm_router(backbone)
        victim = backbone.heads[1]
        outcome = repair(backbone, victim)
        assert outcome.backbone is not None
        inherited = BatchRouter(outcome.backbone)
        stats = inherited.inherit_edge_delta(router, (victim,))
        # a recluster rebuilds the head graph; whatever the certificate
        # carries still routes exactly like a cold router
        assert stats["head_graph_unchanged"] == 0
        self._assert_identical(outcome.backbone, inherited, {victim})

    def test_chained_repairs_keep_identity(self, backbone):
        from repro.maintenance.repair import repair

        router = self._warm_router(backbone)
        current = backbone
        dead = set()
        rng = np.random.default_rng(8)
        for _ in range(4):
            victim = int(rng.integers(0, current.clustering.graph.n))
            while victim in dead:
                victim = int(rng.integers(0, current.clustering.graph.n))
            outcome = repair(current, victim)
            if outcome.partitioned:
                break
            dead.add(victim)
            nxt = BatchRouter(outcome.backbone)
            nxt.inherit_edge_delta(router, (victim,))
            router, current = nxt, outcome.backbone
            self._assert_identical(current, router, dead)

    def test_lifetime_reports_rebuilds_avoided(self):
        from repro.net.energy import EnergyParams
        from repro.traffic.lifetime import simulate_traffic_lifetime

        topo = random_topology(150, degree=8.0, seed=11)
        wl = uniform_pairs(topo.graph.n, 500, seed=5)
        params = EnergyParams(
            initial=8000.0,
            tx_cost=1.0,
            rx_cost=0.5,
            idle_member=0.01,
            idle_backbone=1.0,
        )
        report = simulate_traffic_lifetime(
            topo.graph, 2, wl, epochs=120, scheme="static", params=params
        )
        assert report.total_deaths > 0
        # member deaths splice the backbone: the routing layer survives
        assert report.router_rebuilds_avoided > 0
        assert report.router_legs_inherited > 0


class TestRouterEdgeDeltaInheritance:
    """Inherited-vs-fresh walk identity across mobility edge deltas."""

    @staticmethod
    def _instance(seed=17, n=150):
        topo = random_topology(n, degree=7.0, seed=seed)
        from repro.net.graph import Graph

        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("lazy")
        return g

    def _build(self, g):
        paths = PathOracle(g)
        backbone = build_backbone(khop_cluster(g, 2), "AC-LMST", oracle=paths)
        router = BatchRouter(backbone, oracle=paths)
        return backbone, router, paths

    def test_delta_inherited_router_walk_identical(self):
        g = self._instance()
        _, router, paths = self._build(g)
        wl = uniform_pairs(g.n, 400, seed=3)
        router.route_flows(wl, with_shortest=True)
        rng = np.random.default_rng(5)
        edges = list(g.edges)
        removed = [edges[int(i)] for i in rng.choice(len(edges), 3, replace=False)]
        added = []
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    added.append((u, v))
                    break
            if len(added) == 3:
                break
        g2 = g.with_edge_delta(added, removed)
        touched = {x for e in added + removed for x in e}
        new_paths = PathOracle(g2)
        new_paths.inherit_edge_delta(paths, touched)
        backbone2 = build_backbone(
            khop_cluster(g2, 2), "AC-LMST", oracle=new_paths
        )
        router2 = BatchRouter(backbone2, oracle=new_paths)
        router2.router.inherit_from(router.router)
        got = router2.route_flows(wl, with_shortest=True)
        fresh_backbone = build_backbone(khop_cluster(g2, 2), "AC-LMST")
        want = BatchRouter(fresh_backbone).route_flows(wl, with_shortest=True)
        assert got.walks == want.walks
        assert got.head_paths == want.head_paths
        assert np.array_equal(got.shortest, want.shortest)

    def test_empty_delta_inherits_whole_head_layer(self):
        """Unchanged head set + links: all-or-nothing rung still fires."""
        g = self._instance(seed=19)
        backbone, router, paths = self._build(g)
        router.route_flows(uniform_pairs(g.n, 300, seed=7), with_shortest=False)
        # Same graph, same backbone: the head layer must carry whole.
        router2 = BatchRouter(backbone, oracle=PathOracle(g))
        stats = router2.inherit_edge_delta(router, set())
        assert stats["head_graph_unchanged"] == 1
        assert stats["trees"] == len(router.router._trees)
        assert stats["head_seqs"] == len(router.router._head_seqs)
        assert stats["head_walks"] == len(router.router._walks)
        assert stats["legs"] == len(paths)

    def test_batchrouter_inherit_edge_delta_skips_shared_oracle(self):
        g = self._instance(seed=23)
        backbone, router, paths = self._build(g)
        router.route_flows(uniform_pairs(g.n, 200, seed=9), with_shortest=False)
        router2 = BatchRouter(backbone, oracle=paths)  # same oracle object
        stats = router2.inherit_edge_delta(router, set())
        assert stats["legs"] == 0  # legs already live in the shared oracle


class TestDegradedValidity:
    """Regression: the valid mask gates delivery and stretch accounting."""

    @staticmethod
    def _batch(outcome=None):
        from repro.traffic.workloads import Workload

        wl = Workload(
            name="degraded",
            n=6,
            sources=np.array([0, 2, 4]),
            targets=np.array([1, 3, 5]),
            demands=np.array([2, 3, 5]),
        )
        return RoutedFlows(
            workload=wl,
            walks=[(0, 1), (2,), (4, 5)],
            hops=np.array([1, 0, 1], dtype=DIST_DTYPE),
            shortest=np.array([1, 0, 1], dtype=DIST_DTYPE),
            head_paths=[(), (), ()],
            outcome=outcome,
            valid=np.array([True, False, True]),
        )

    def test_binary_world_counts_only_valid_demand(self):
        """A degraded batch never reports 1.0: placeholders are undelivered."""
        routed = self._batch()
        assert routed.num_valid == 2
        assert routed.delivered_fraction() == pytest.approx((2 + 5) / 10)

    def test_lossy_world_masks_placeholder_survivals(self):
        """A zero-hop placeholder trivially 'delivered' still counts lost."""
        outcome = np.array([0, 0, 1], dtype=np.int8)
        routed = self._batch(outcome=outcome)
        assert routed.delivered_fraction() == pytest.approx(2 / 10)

    def test_stretches_cover_valid_flows_only(self):
        stretches = self._batch().stretches()
        assert stretches.shape == (2,)
        assert stretches.tolist() == [1.0, 1.0]
