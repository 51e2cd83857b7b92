"""Seeded end-to-end scenario regression matrix.

Every cell of generators × workloads × oracle backends × static/mobile
runs the full pipeline (cluster → backbone → batch-route → account) and
asserts the structural invariants that must hold in *any* configuration:

* routed walks are real walks (every hop an edge, endpoints match);
* flow conservation (every flow contributes exactly ``demand × hops``
  transmits/receives and ``demand × (hops - 1)`` forwards);
* stretch >= 1 against the backend's own shortest distances;
* the clustering verifies, and a repaired clustering re-verifies after a
  seeded failure;
* mobile cells additionally require the edge-delta engine to reproduce
  the from-scratch rebuild walk-for-walk.

A representative diagonal runs in tier-1; the full cross product is
marked ``slow`` (``make test-all``, CI's scenario-matrix job).
"""

import numpy as np
import pytest

from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.maintenance.repair import clustering_still_valid, repair
from repro.net.generators import ring_of_cliques, toroidal_grid
from repro.net.topology import random_topology
from repro.traffic.load import measure_load
from repro.traffic.mobile import simulate_mobile_traffic
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import make_workload

K = 2
ALGORITHM = "AC-LMST"
FLOWS = 240
SEED = 97

GENERATORS = {
    "unit-disk": lambda: random_topology(120, degree=7.0, seed=SEED).graph,
    "toroidal": lambda: toroidal_grid(9, 11),
    "ring-of-cliques": lambda: ring_of_cliques(10, 6),
}
WORKLOAD_KINDS = ("uniform", "cbr", "hotspot", "gossip")
BACKENDS = ("lazy", "landmark")

#: Cells that run in tier-1 (one per generator / workload / backend so
#: every axis keeps quick coverage); the rest are slow.
QUICK_STATIC = {
    ("unit-disk", "uniform", "lazy"),
    ("unit-disk", "hotspot", "landmark"),
    ("toroidal", "gossip", "landmark"),
    ("ring-of-cliques", "cbr", "lazy"),
}
QUICK_MOBILE = {("uniform", "lazy")}


def _static_cells():
    for gen in GENERATORS:
        for kind in WORKLOAD_KINDS:
            for backend in BACKENDS:
                cell = (gen, kind, backend)
                marks = [] if cell in QUICK_STATIC else [pytest.mark.slow]
                yield pytest.param(*cell, marks=marks, id="-".join(cell))


def _mobile_cells():
    for kind in WORKLOAD_KINDS:
        for backend in BACKENDS:
            cell = (kind, backend)
            marks = [] if cell in QUICK_MOBILE else [pytest.mark.slow]
            yield pytest.param(*cell, marks=marks, id="mobile-" + "-".join(cell))


def _assert_routed_invariants(graph, backbone, wl, routed):
    # Walks are valid backbone-routed walks on the real graph.
    assert len(routed.walks) == wl.num_flows
    for i, walk in enumerate(routed.walks):
        assert walk[0] == wl.sources[i]
        assert walk[-1] == wl.targets[i]
        for a, b in zip(walk, walk[1:]):
            assert graph.has_edge(a, b), f"walk {i} uses non-edge ({a},{b})"
    # Stretch >= 1 against the backend's own shortest distances.
    assert (routed.hops >= routed.shortest).all()
    assert (routed.shortest >= 1).all()
    # Flow conservation: demand-weighted transmit/receive/forward sums.
    load = measure_load(backbone, routed)
    demands = wl.demands
    assert load.packet_hops == int((demands * routed.hops).sum())
    assert int(load.tx.sum()) == load.packet_hops
    assert int(load.rx.sum()) == load.packet_hops
    assert int(load.transit.sum()) == int(
        (demands * (routed.hops - 1)).sum()
    )
    assert load.mean_stretch >= 1.0


@pytest.mark.parametrize("gen,kind,backend", list(_static_cells()))
def test_static_cell(gen, kind, backend):
    graph = GENERATORS[gen]()
    graph.use_distance_backend(backend)
    wl = make_workload(kind, graph.n, FLOWS, seed=SEED)
    clustering = khop_cluster(graph, K)
    # Every node within K hops of its head, on this backend.
    assert clustering_still_valid(clustering, graph)
    backbone = build_backbone(clustering, ALGORITHM)
    routed = BatchRouter(backbone).route_flows(wl, with_shortest=True)
    _assert_routed_invariants(graph, backbone, wl, routed)
    # The balance= mode must keep every invariant while only swapping
    # inter-cluster head walks within the stretch bound, deterministically.
    balancer = BatchRouter(backbone)
    balanced = balancer.route_flows(wl, with_shortest=True, balance=True)
    _assert_routed_invariants(graph, backbone, wl, balanced)
    hr = balancer.router
    for i, (seq, canon) in enumerate(
        zip(balanced.head_paths, routed.head_paths)
    ):
        assert bool(seq) == bool(canon)
        if not seq:
            assert balanced.walks[i] == routed.walks[i]
            continue
        assert (seq[0], seq[-1]) == (canon[0], canon[-1])
        assert hr.seq_weight(seq) <= 1.5 * max(hr.seq_weight(canon), 1)
        walk_iter = iter(balanced.walks[i])
        assert all(h in walk_iter for h in seq)
    again = BatchRouter(backbone).route_flows(wl, with_shortest=True, balance=True)
    assert again.walks == balanced.walks
    # Repaired clusterings re-verify: kill one seeded survivor of each
    # role class that exists and push it through the §3.3 ladder (repair
    # runs the full verification battery internally).
    rng = np.random.default_rng(SEED)
    victims = {int(rng.choice(backbone.heads))}
    non_heads = [u for u in graph.nodes() if u not in set(backbone.heads)]
    victims.add(int(rng.choice(non_heads)))
    for victim in sorted(victims):
        outcome = repair(backbone, victim)
        assert outcome.partitioned or outcome.backbone is not None
        if outcome.backbone is not None:
            assert clustering_still_valid(
                outcome.backbone.clustering,
                outcome.backbone.clustering.graph,
                exclude={victim},
            )


@pytest.mark.parametrize("kind,backend", list(_mobile_cells()))
def test_mobile_cell(kind, backend):
    topo = random_topology(120, degree=7.0, seed=SEED)
    topo.graph.use_distance_backend(backend)
    wl = make_workload(kind, topo.graph.n, FLOWS, seed=SEED)
    kw = dict(snapshots=3, speed=(0.1, 0.5), seed=SEED, collect_walks=True)
    delta = simulate_mobile_traffic(topo, K, wl, engine="delta", **kw)
    rebuild = simulate_mobile_traffic(topo, K, wl, engine="rebuild", **kw)
    # The tentpole contract: edge-delta maintenance is walk-invisible.
    assert delta.walks == rebuild.walks
    for e in delta.routed_epochs():
        assert e.mean_stretch >= 1.0
        assert e.delivered == 1.0
        assert e.cds_size >= e.num_heads > 0
