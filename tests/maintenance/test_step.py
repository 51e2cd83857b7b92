"""The maintenance step: carried routers route like cold builds."""

import dataclasses

import numpy as np
import pytest

from repro.core.clustering import khop_cluster, resolve_head_conflicts
from repro.core.pipeline import build_backbone
from repro.errors import ValidationError
from repro.maintenance.repair import repair
from repro.maintenance.step import carry_delta, carry_repair
from repro.net.graph import Graph
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import make_workload

ALGORITHM = "NC-Mesh"
N = 50


def _cold(clustering):
    """``clustering`` moved onto a cache-cold copy of its graph."""
    g = clustering.graph
    cold = Graph(g.n, g.edges)
    cold.use_distance_backend("lazy")
    return dataclasses.replace(clustering, graph=cold)


def _walks(router, seed, dead=None):
    workload = make_workload("uniform", N, 200, seed=seed)
    if dead is not None:
        alive = np.ones(N, dtype=bool)
        alive[dead] = False
        workload = workload.restrict(alive)
    return router.route_flows(workload, with_shortest=False).walks


@pytest.fixture
def warm_router():
    """A router whose caches one routed batch has filled."""
    graph = random_topology(N, degree=6.0, seed=1).graph
    graph.use_distance_backend("lazy")
    router = BatchRouter(build_backbone(khop_cluster(graph, 2), ALGORITHM))
    _walks(router, seed=1)
    return router


class TestCarryDelta:
    def test_plain_delta_matches_cold_build(self, warm_router):
        clustering = warm_router.result.clustering
        u, v = clustering.graph.edges[0]
        g2 = clustering.graph.with_edge_delta([], [(u, v)])
        c2 = dataclasses.replace(clustering, graph=g2)
        router, stats = carry_delta(warm_router, c2, {u, v})
        assert router.result.clustering is c2
        assert stats["paths"] > 0
        cold = BatchRouter(build_backbone(_cold(c2), ALGORITHM))
        assert _walks(router, seed=2) == _walks(cold, seed=2)

    def test_head_merge_retry_matches_cold_build(self, warm_router):
        # The new edge 0-14 pulls heads 0 and 1 within k, so the
        # canonical path of virtual link 1-12 now crosses head 0.
        clustering = warm_router.result.clustering
        g2 = clustering.graph.with_edge_delta([(0, 14)], [])
        c2 = dataclasses.replace(clustering, graph=g2)
        with pytest.raises(ValidationError, match="passes through"):
            build_backbone(_cold(c2), ALGORITHM)
        router, _ = carry_delta(warm_router, c2, {0, 14})
        merged = resolve_head_conflicts(c2)
        assert len(merged.heads) < len(c2.heads)
        assert router.result.clustering.heads == merged.heads
        assert router.result.clustering.head_of == merged.head_of
        cold = BatchRouter(build_backbone(_cold(merged), ALGORITHM))
        assert _walks(router, seed=2) == _walks(cold, seed=2)


class TestCarryRepair:
    @pytest.mark.parametrize("role", ["member", "gateway", "head"])
    def test_repaired_router_matches_cold_build(self, warm_router, role):
        backbone = warm_router.result
        heads = set(backbone.heads)
        node = {
            "member": min(
                u for u in range(N)
                if u not in heads and u not in backbone.gateways
            ),
            "gateway": min(backbone.gateways),
            "head": backbone.heads[0],
        }[role]
        outcome = repair(backbone, node)
        assert outcome.backbone is not None
        router, stats = carry_repair(warm_router, outcome)
        assert router.result is outcome.backbone
        assert set(stats) >= {"trees", "legs", "head_graph_unchanged"}
        cold = BatchRouter(
            dataclasses.replace(
                outcome.backbone, clustering=_cold(outcome.backbone.clustering)
            )
        )
        assert _walks(router, 3, node) == _walks(cold, 3, node)
