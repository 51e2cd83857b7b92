"""Traffic engine: batched flow routing, load accounting, lifetime loops.

The layer that puts actual load on the clustered backbone (ROADMAP north
star: "heavy traffic from millions of users"):

* :mod:`~repro.traffic.workloads` — seeded flow-batch generators
  (uniform, CBR, hotspot convergecast, gossip);
* :mod:`~repro.traffic.router` — the vectorized batch router
  (:class:`BatchRouter`) sharing Dijkstra trees, one walk per head
  sequence, legs and bit-packed BFS sweeps across thousands of flows;
* :mod:`~repro.traffic.load` — per-node forwarding load, virtual-link
  utilization, stretch/congestion/fairness accounting;
* :mod:`~repro.traffic.congestion` — per-link service capacities derived
  from the backbone and fluid-queue drops, exported as a
  :class:`~repro.faults.delivery.LossModel` so over-capacity links
  degrade delivery (and congested heads burn energy on retransmits);
* :mod:`~repro.traffic.lifetime` — the closed loop where measured load
  drains :class:`~repro.net.energy.EnergyModel`, deaths feed the §3.3
  repair ladder, and flows replay across epochs (rotation vs static);
* :mod:`~repro.traffic.mobile` — mobility-coupled traffic: the same
  workload replayed over RandomWaypoint unit-disk snapshots, evolved by
  edge deltas (the ``repro-khop mobility`` experiment);
* :mod:`~repro.traffic.report` — the ``repro-khop traffic`` experiment.
"""

from .congestion import (
    CongestionModel,
    CongestionReport,
    congestion_report,
)
from .lifetime import (
    LifetimeEpoch,
    LifetimeReport,
    compare_rotation_under_traffic,
    simulate_traffic_lifetime,
)
from .load import LoadReport, measure_load
from .mobile import (
    MobileEpoch,
    MobileTrafficReport,
    render_mobile,
    simulate_mobile_traffic,
)
from .report import TrafficReport, render_traffic, run_traffic
from .router import BatchRouter, RoutedFlows
from .workloads import (
    WORKLOADS,
    Workload,
    cbr_flows,
    gossip,
    hotspot,
    make_workload,
    uniform_pairs,
)

__all__ = [
    "Workload",
    "uniform_pairs",
    "cbr_flows",
    "hotspot",
    "gossip",
    "WORKLOADS",
    "make_workload",
    "BatchRouter",
    "RoutedFlows",
    "LoadReport",
    "measure_load",
    "CongestionModel",
    "CongestionReport",
    "congestion_report",
    "LifetimeEpoch",
    "LifetimeReport",
    "simulate_traffic_lifetime",
    "compare_rotation_under_traffic",
    "MobileEpoch",
    "MobileTrafficReport",
    "simulate_mobile_traffic",
    "render_mobile",
    "TrafficReport",
    "run_traffic",
    "render_traffic",
]
