"""Mobility-coupled traffic benchmark: edge-delta engine vs per-snapshot rebuild.

The tentpole claim this benchmark gates: driving the traffic workload
over RandomWaypoint unit-disk snapshots with **edge-delta maintenance**
(:meth:`Graph.with_edge_delta` + the inheritance family behind
``engine="delta"``) produces **walk-identical** results to rebuilding
graph, oracle, clustering, backbone and router from scratch on every
snapshot — and does so **>= 3x faster** at the acceptance grid point
N=2000 over 20 snapshots (high-frequency sampling: successive snapshots
differ by a handful of edges, the regime §3.3 maintenance targets).

The full grid point runs when ``REPRO_BENCH_FULL=1`` (``make
bench-mobility``); the default tier-1 pass uses a reduced instance with a
correspondingly reduced speedup gate so the CI smoke job stays fast.
Speedup assertions are enforced under ``REPRO_BENCH_STRICT``; deliberate
bench runs (strict/full/persist env flags) record the measurement to
``BENCH_mobility.json`` at the repo root.
"""

import math
import os
import time

from conftest import persist_bench

from repro.net.topology import random_topology
from repro.traffic.mobile import simulate_mobile_traffic
from repro.traffic.workloads import uniform_pairs

#: (n, snapshots, flows, min_speedup) — acceptance and reduced cases.
FULL_CASE = (2000, 20, 1500, 3.0)
QUICK_CASE = (600, 6, 600, 1.5)

#: Average degree (same regime as the churn benchmark).
MOB_DEGREE = 10.0

#: Cluster radius.
MOB_K = 2

#: Random-waypoint speed range in area units per step — high-frequency
#: sampling of pedestrian-scale motion, so successive unit-disk snapshots
#: differ by a few edges (the mobility docstring's stated regime).
MOB_SPEED = (0.001, 0.004)
QUICK_SPEED = (0.002, 0.008)


def _case():
    if os.environ.get("REPRO_BENCH_FULL"):
        return FULL_CASE + (MOB_SPEED,)
    return QUICK_CASE + (QUICK_SPEED,)


def test_bench_mobility_delta_vs_rebuild(benchmark):
    n, snapshots, flows, min_speedup, speed = _case()
    topo = random_topology(n, degree=MOB_DEGREE, seed=17)
    topo.graph.use_distance_backend("lazy")
    wl = uniform_pairs(n, flows, seed=23)

    # CPU time so the strict gate is robust to CI scheduling noise.
    t0 = time.process_time()
    rebuild = simulate_mobile_traffic(
        topo, MOB_K, wl, snapshots=snapshots, speed=speed, seed=29,
        engine="rebuild", collect_walks=True,
    )
    t1 = time.process_time()
    delta = benchmark.pedantic(
        simulate_mobile_traffic,
        args=(topo, MOB_K, wl),
        kwargs=dict(
            snapshots=snapshots, speed=speed, seed=29,
            engine="delta", collect_walks=True,
        ),
        rounds=1,
        iterations=1,
    )
    t2 = time.process_time()
    rebuild_s, delta_s = t1 - t0, t2 - t1

    # The acceptance contract: edge-delta maintenance is *exact* — every
    # epoch's routed walks are identical to the from-scratch rebuild's.
    assert delta.walks == rebuild.walks
    assert len(delta.epochs) == len(rebuild.epochs) == snapshots + 1
    for a, b in zip(delta.epochs, rebuild.epochs):
        assert a.connected == b.connected
        if a.connected:
            assert math.isclose(a.mean_stretch, b.mean_stretch)
            assert a.max_node_load == b.max_node_load
    # The inheritance actually fired (the speedup is not an accident).
    assert delta.rows_inherited > 0
    assert delta.paths_inherited > 0

    speedup = rebuild_s / max(delta_s, 1e-9)
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert speedup >= min_speedup, (
            f"edge-delta mobility ({delta_s:.2f}s) should be >= "
            f"{min_speedup}x faster than per-snapshot rebuild "
            f"({rebuild_s:.2f}s)"
        )
    mean_delta_edges = sum(
        e.edges_added + e.edges_removed for e in delta.epochs
    ) / snapshots
    record = dict(
        n=n,
        snapshots=snapshots,
        flows=flows,
        k=MOB_K,
        speed=list(speed),
        delta_seconds=round(delta_s, 3),
        rebuild_seconds=round(rebuild_s, 3),
        speedup=round(speedup, 2),
        mean_delta_edges=round(mean_delta_edges, 1),
        rows_inherited=delta.rows_inherited,
        paths_inherited=delta.paths_inherited,
        router_rebuilds_avoided=delta.router_rebuilds_avoided,
        mean_stretch=round(delta.mean("mean_stretch"), 3),
        mean_head_churn=round(delta.mean("head_churn"), 3),
    )
    benchmark.extra_info.update(record)
    persist_bench("BENCH_mobility.json", {"benchmark": "mobility", **record})
