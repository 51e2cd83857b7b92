"""Traffic-engine benchmark: batched flow routing vs looped scalar routing.

The tentpole claim this benchmark measures: the batch router
(:class:`~repro.traffic.router.BatchRouter`) — shared head-graph Dijkstra
trees, one walk cache keyed by head sequence, leg reuse, and bit-packed BFS
rows — routes >= 10,000 flows over an N=2000 unit-disk backbone **>= 10x**
faster than looping per-pair :func:`repro.cds.routing.route` calls (which
rebuild the head graph and re-run Dijkstra for every flow), while
producing *identical walks* on a sampled subset.

The full acceptance grid point runs when ``REPRO_BENCH_FULL=1`` (``make
bench-traffic``); the default tier-1 pass uses a reduced instance so the
gate stays fast.  The speedup assertion is enforced under
``REPRO_BENCH_STRICT``; deliberate bench runs record the measurement to
``BENCH_traffic.json`` at the repo root.

A second benchmark runs the traffic-driven lifetime acceptance scenario
end to end (load-proportional drain -> backbone death -> repair ->
replay) and records the rotation-vs-static time-to-first-partition gap.
"""

import os
import time

from conftest import persist_bench

from repro.cds.routing import route
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.net.energy import EnergyParams
from repro.net.paths import PathOracle
from repro.net.topology import random_topology
from repro.traffic.lifetime import compare_rotation_under_traffic
from repro.traffic.load import measure_load
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs

#: (n, flows) — the acceptance grid point, and the reduced tier-1 one.
FULL_CASE = (2000, 10_000)
QUICK_CASE = (600, 5_000)

#: Average degree (same regime as the scaling/churn benchmarks).
TRAFFIC_DEGREE = 12.0

#: Cluster radius of the routed backbone.
TRAFFIC_K = 2

#: Flows cross-checked walk-for-walk between the two routers.
EQUIVALENCE_SAMPLES = 200


def _case():
    return FULL_CASE if os.environ.get("REPRO_BENCH_FULL") else QUICK_CASE


def test_bench_traffic_batch_vs_scalar(benchmark):
    n, flows = _case()
    topo = random_topology(n, degree=TRAFFIC_DEGREE, seed=41)
    g = topo.graph
    backbone = build_backbone(khop_cluster(g, TRAFFIC_K), "AC-LMST")
    workload = uniform_pairs(n, flows, seed=43)

    # Baseline: one scalar route() per flow — head graph rebuilt and
    # Dijkstra re-run every call (the pre-traffic-engine behavior), with
    # a shared canonical-path oracle (its best realistic configuration).
    scalar_oracle = PathOracle(g)
    pairs = list(zip(workload.sources.tolist(), workload.targets.tolist()))
    t0 = time.process_time()
    scalar_walks = [route(backbone, scalar_oracle, s, t) for s, t in pairs]
    t1 = time.process_time()

    # Timed work = routing only, matching what the scalar loop does; the
    # optional shortest-distance query for stretch runs outside the clock.
    router = BatchRouter(backbone)
    routed = benchmark.pedantic(
        router.route_flows,
        args=(workload,),
        kwargs=dict(with_shortest=False),
        rounds=1,
        iterations=1,
    )
    t2 = time.process_time()
    scalar_s, batch_s = t1 - t0, t2 - t1

    # Identical walks on the sampled subset — identical stretch follows,
    # asserted explicitly against one bulk pair-distance query.
    step = max(1, flows // EQUIVALENCE_SAMPLES)
    sample = list(range(0, flows, step))
    for i in sample:
        assert routed.walks[i] == scalar_walks[i], pairs[i]
    shortest = g.oracle.pair_distances([pairs[i] for i in sample])
    for i, d in zip(sample, shortest.tolist()):
        batch_stretch = (len(routed.walks[i]) - 1) / d
        scalar_stretch = (len(scalar_walks[i]) - 1) / d
        assert batch_stretch == scalar_stretch

    load = measure_load(backbone, routed)
    assert load.packet_hops == sum(
        len(w) - 1 for w in scalar_walks
    )  # same total work routed

    speedup = scalar_s / max(batch_s, 1e-9)
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert speedup >= 10.0, (
            f"batch routing ({batch_s:.2f}s) should be >= 10x faster than "
            f"{flows} looped route() calls ({scalar_s:.2f}s)"
        )
    sampled_stretch = sum(
        (len(routed.walks[i]) - 1) / d
        for i, d in zip(sample, shortest.tolist())
    ) / len(sample)
    record = dict(
        n=n,
        flows=flows,
        k=TRAFFIC_K,
        batch_seconds=round(batch_s, 3),
        scalar_seconds=round(scalar_s, 3),
        speedup=round(speedup, 1),
        mean_stretch_sampled=round(sampled_stretch, 3),
        max_node_load=load.max_node_load,
        cds_share=round(load.cds_share, 3),
        backbone_fairness=round(load.backbone_fairness, 3),
    )
    benchmark.extra_info.update(record)
    persist_bench("BENCH_traffic.json", {"benchmark": "batch_routing", **record})


def test_bench_traffic_lifetime_rotation_gap(benchmark):
    """The acceptance scenario: rotation outlives static heads under load."""
    topo = random_topology(150, degree=8.0, seed=11)
    workload = uniform_pairs(topo.graph.n, 500, seed=5)
    params = EnergyParams(
        initial=8000.0,
        tx_cost=1.0,
        rx_cost=0.5,
        idle_member=0.01,
        idle_backbone=1.0,
    )

    reports = benchmark.pedantic(
        compare_rotation_under_traffic,
        args=(topo.graph, TRAFFIC_K, workload),
        kwargs=dict(epochs=120, params=params),
        rounds=1,
        iterations=1,
    )
    energy, static = reports["energy"], reports["static"]
    # the drain regime actually kills backbone nodes and partitions
    assert static.first_partition_epoch is not None
    assert static.deaths[0][2] in ("head", "gateway")
    # rotation measurably extends time-to-first-partition
    assert energy.lifetime > static.lifetime
    record = dict(
        n=topo.graph.n,
        flows=workload.num_flows,
        epochs=120,
        energy_lifetime=energy.lifetime,
        static_lifetime=static.lifetime,
        energy_deaths=energy.total_deaths,
        static_deaths=static.total_deaths,
        energy_distinct_heads=energy.distinct_heads,
        static_distinct_heads=static.distinct_heads,
    )
    benchmark.extra_info.update(record)
    persist_bench(
        "BENCH_traffic.json", {"benchmark": "lifetime_rotation", **record}
    )
