"""Clustering stability under mobility (§1's "combinatorially stable" claim).

The paper argues for small k because "network topology changes frequently
... small k may help to construct a combinatorially stable system, in
which the propagation of all topology updates is sufficiently fast to
reflect the topology change", and §5 promises a movement-sensitive
maintenance policy as future work.

:func:`simulate_stability` quantifies that tradeoff: nodes move under
random waypoint; at each step the unit-disk topology is re-snapshotted and
re-clustered, and we measure how much of the clustering and backbone
survived the step:

* **head churn** — fraction of clusterheads that changed;
* **membership churn** — fraction of nodes whose head assignment changed;
* **backbone churn** — Jaccard distance between consecutive CDS node sets;
* **re-clustering scope** — fraction of nodes whose k-hop neighborhood
  changed at all (a lower bound on the update traffic any maintenance
  policy must pay);
* **assignment survival** — whether the *previous* snapshot's clustering
  is still a valid k-hop clustering on the new graph
  (:func:`~repro.maintenance.repair.clustering_still_valid`): the cheap
  gate a movement-sensitive policy would run before re-clustering.

Successive snapshots are evolved through :meth:`Graph.with_edge_delta`
(the unit-disk edge set is diffed against the previous snapshot), so the
distance-oracle caches behind the affected-nodes and survival metrics
inherit across steps instead of rebuilding per snapshot.

Snapshots whose unit-disk graph is disconnected are skipped (the paper's
algorithms are defined on connected networks); the report counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import jaccard_distance
from ..core.clustering import khop_cluster
from ..core.pipeline import build_backbone
from ..errors import InvalidParameterError
from ..net.graph import Graph
from ..net.mobility import RandomWaypoint, snapshot_edge_delta
from ..net.topology import Topology
from .repair import clustering_still_valid

__all__ = ["StabilityStep", "StabilityReport", "simulate_stability"]


@dataclass(frozen=True)
class StabilityStep:
    """Churn metrics between two consecutive connected snapshots."""

    step: int
    head_churn: float
    membership_churn: float
    backbone_jaccard_distance: float
    affected_nodes: float
    edges_changed: int
    assignment_survived: bool = True


@dataclass
class StabilityReport:
    """Aggregate stability metrics of one mobility run.

    Attributes:
        k: cluster radius used.
        steps: per-transition metrics (connected snapshot pairs only).
        skipped_disconnected: snapshots dropped for being disconnected.
    """

    k: int
    steps: list[StabilityStep] = field(default_factory=list)
    skipped_disconnected: int = 0

    def mean(self, metric: str) -> float:
        """Mean of one per-step metric over the run."""
        if not self.steps:
            return float("nan")
        return float(np.mean([getattr(s, metric) for s in self.steps]))


def simulate_stability(
    topology: Topology,
    k: int,
    *,
    steps: int,
    speed: tuple[float, float] = (0.5, 1.5),
    seed: int = 0,
    algorithm: str = "AC-LMST",
) -> StabilityReport:
    """Move nodes, re-cluster each connected snapshot, measure churn.

    Args:
        topology: initial (connected) topology; its radius is reused for
            every snapshot.
        k: cluster radius.
        steps: mobility steps to simulate.
        speed: random-waypoint speed range, units per step.
        seed: RNG seed for the waypoint process.
        algorithm: backbone pipeline used for the backbone-churn metric.
    """
    if steps < 1:
        raise InvalidParameterError("steps must be >= 1")
    mob = RandomWaypoint(
        topology.positions,
        topology.area,
        speed,
        np.random.default_rng(seed),
    )
    report = StabilityReport(k=k)

    prev_graph = topology.graph
    prev_cl = khop_cluster(prev_graph, k)
    prev_backbone = build_backbone(prev_cl, algorithm)
    for step in range(1, steps + 1):
        mob.step()
        new_edges = mob.snapshot_edges(topology.radius)
        # Screened on a cold graph of the snapshot, so a disconnected
        # snapshot is skipped without paying with_edge_delta's oracle-cache
        # inheritance for a graph that would be thrown away.
        if not Graph(prev_graph.n, new_edges).is_connected():
            report.skipped_disconnected += 1
            continue
        added, removed = snapshot_edge_delta(prev_graph, new_edges)
        g = prev_graph.with_edge_delta(added, removed)
        survived = clustering_still_valid(prev_cl, g)
        cl = khop_cluster(g, k)
        backbone = build_backbone(cl, algorithm)

        prev_heads = set(prev_cl.heads)
        heads = set(cl.heads)
        head_churn = (
            1.0 - len(prev_heads & heads) / len(prev_heads | heads)
            if prev_heads | heads
            else 0.0
        )
        changed_members = sum(
            1
            for u in g.nodes()
            if cl.head_of[u] != prev_cl.head_of[u]
        )
        delta_edges = np.concatenate([added, removed])
        touched = set(delta_edges.ravel().tolist())
        affected = set(g.nodes_within(sorted(touched), k)) if touched else set()
        report.steps.append(
            StabilityStep(
                step=step,
                head_churn=head_churn,
                membership_churn=changed_members / g.n,
                backbone_jaccard_distance=jaccard_distance(
                    prev_backbone.cds, backbone.cds
                ),
                affected_nodes=len(affected) / g.n,
                edges_changed=len(delta_edges),
                assignment_survived=survived,
            )
        )
        prev_graph, prev_cl, prev_backbone = g, cl, backbone
    return report
