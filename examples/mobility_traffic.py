"""Mobility-coupled traffic: stretch and load measured under motion.

Runs the same flow workload over a sequence of RandomWaypoint unit-disk
snapshots twice — once rebuilding everything from scratch per snapshot,
once with edge-delta maintenance (``Graph.with_edge_delta`` plus the
oracle/path/router inheritance family) — and shows that the two agree
walk-for-walk while the delta engine does a fraction of the work.

Run from the repo root:

    PYTHONPATH=src python examples/mobility_traffic.py
"""

import time

from repro.net.topology import random_topology
from repro.traffic.mobile import render_mobile, simulate_mobile_traffic
from repro.traffic.workloads import uniform_pairs


def main() -> None:
    n, k, snapshots = 500, 2, 10
    topo = random_topology(n, degree=9.0, seed=7)
    workload = uniform_pairs(n, 800, seed=7)
    # High-frequency sampling: successive snapshots differ by a few edges.
    speed = (0.002, 0.01)

    t0 = time.perf_counter()
    rebuild = simulate_mobile_traffic(
        topo, k, workload, snapshots=snapshots, speed=speed, seed=7,
        engine="rebuild", collect_walks=True,
    )
    t1 = time.perf_counter()
    delta = simulate_mobile_traffic(
        topo, k, workload, snapshots=snapshots, speed=speed, seed=7,
        engine="delta", collect_walks=True,
    )
    t2 = time.perf_counter()

    print(render_mobile(delta))
    print()
    identical = rebuild.walks == delta.walks
    print(
        f"engines walk-identical: {identical}  |  "
        f"rebuild {t1 - t0:.2f}s vs delta {t2 - t1:.2f}s "
        f"({(t1 - t0) / max(t2 - t1, 1e-9):.1f}x)"
    )


if __name__ == "__main__":
    main()
