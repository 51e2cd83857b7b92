"""Churn simulation: a stream of node failures with §3.3 repairs applied.

Drives the repair ladder with a random failure sequence and aggregates
what the paper argues qualitatively: most failures touch nothing (members)
or only the incident heads (gateways), and full re-elections stay rare
because clusterheads are few.

Failures are applied cumulatively — each repair's backbone is the input to
the next failure — so the report reflects a degrading network, not
independent single-failure experiments (those live in the maintenance
benchmark).

:func:`simulate_churn` rides the incremental machinery end to end: each
removal is an edge delta through :meth:`Graph.without_nodes` (CSR splice +
oracle cache inheritance), member failures splice the existing
backbone instead of rebuilding it, and validation runs on per-head balls
that mostly survive from the previous failure's cache.
:func:`simulate_churn_rebuild` is the from-scratch baseline — rebuild
graph, clustering, backbone and oracle on every failure — kept as the
yardstick the churn benchmark measures the incremental path against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.clustering import khop_cluster
from ..core.pipeline import BackboneResult, build_backbone
from ..errors import InvalidParameterError
from ..net.graph import Graph
from .repair import RepairOutcome, failure_role, rebuild_survivors, repair

__all__ = ["ChurnReport", "simulate_churn", "simulate_churn_rebuild"]


@dataclass
class ChurnReport:
    """Aggregate outcome of a cumulative failure sequence.

    Attributes:
        outcomes: per-failure repair outcomes, in order.
        actions: histogram of repair actions.
        roles: histogram of failed-node roles.
        survivors_backbone: the final backbone (None if the network
            partitioned and the simulation stopped).
        stopped_at: index of the failure that partitioned the network,
            or None if all failures were absorbed.
    """

    outcomes: list[RepairOutcome] = field(default_factory=list)
    actions: Counter = field(default_factory=Counter)
    roles: Counter = field(default_factory=Counter)
    survivors_backbone: Optional[BackboneResult] = None
    stopped_at: Optional[int] = None

    @property
    def mean_locality(self) -> float:
        """Mean repair locality over non-partition outcomes (1.0 = local)."""
        vals = [o.locality for o in self.outcomes if not o.partitioned]
        return float(np.mean(vals)) if vals else 0.0

    @property
    def recluster_rate(self) -> float:
        """Fraction of failures that forced a clusterhead re-election."""
        if not self.outcomes:
            return 0.0
        return self.actions["recluster"] / len(self.outcomes)


def simulate_churn(
    graph: Graph,
    k: int,
    *,
    failures: int,
    seed: int,
    algorithm: str = "AC-LMST",
) -> ChurnReport:
    """Kill ``failures`` random distinct nodes one at a time, repairing each.

    Stops early (recording ``stopped_at``) if a failure partitions the
    surviving network — after that no single backbone can exist.

    Args:
        graph: connected network.
        k: cluster radius.
        failures: how many nodes to remove (< n).
        seed: RNG seed for the failure order.
        algorithm: backbone pipeline to maintain.
    """
    if failures < 1 or failures >= graph.n:
        raise InvalidParameterError(
            f"failures must be in 1..{graph.n - 1}, got {failures}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.n)[:failures]
    backbone = build_backbone(khop_cluster(graph, k), algorithm)
    report = ChurnReport()
    for i, node in enumerate(order.tolist()):
        out = repair(backbone, int(node))
        report.outcomes.append(out)
        report.actions[out.action] += 1
        report.roles[out.role] += 1
        if out.partitioned:
            report.stopped_at = i
            return report
        backbone = out.backbone
    report.survivors_backbone = backbone
    return report


def simulate_churn_rebuild(
    graph: Graph,
    k: int,
    *,
    failures: int,
    seed: int,
    algorithm: str = "AC-LMST",
) -> ChurnReport:
    """From-scratch churn baseline: full rebuild on every failure.

    Applies the same failure order as :func:`simulate_churn` (same seed,
    same RNG draw) but ignores the §3.3 repair ladder entirely: each
    failure constructs the reduced graph through the generic multi-node
    path (cold CSR, cold oracle), re-runs clusterhead election, and
    rebuilds the backbone — the seed implementation's behavior and the
    baseline the churn benchmark measures the incremental path against.

    Every outcome is recorded as action ``"recluster"``; partition
    handling matches :func:`simulate_churn`.
    """
    if failures < 1 or failures >= graph.n:
        raise InvalidParameterError(
            f"failures must be in 1..{graph.n - 1}, got {failures}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.n)[:failures]
    backbone = build_backbone(khop_cluster(graph, k), algorithm)
    report = ChurnReport()
    dead: set[int] = set()
    current = graph
    for i, node in enumerate(order.tolist()):
        node = int(node)
        dead.add(node)
        role = failure_role(backbone, node)
        report.roles[role] += 1
        # Force the generic (non-incremental) removal path: rebuild the
        # reduced graph from the full edge list with nothing carried over.
        edges = current.edge_array
        reduced = Graph(current.n, edges[(edges != node).all(axis=1)])
        reduced._backend = current._backend
        survivors = [u for u in reduced.nodes() if u not in dead]
        if survivors and not reduced.is_connected_subset(survivors):
            report.outcomes.append(
                RepairOutcome(
                    failed_node=node,
                    role=role,
                    action="partition",
                    escalated=False,
                    scope_heads=frozenset(backbone.heads),
                    partitioned=True,
                    backbone=None,
                )
            )
            report.actions["partition"] += 1
            report.stopped_at = i
            return report
        backbone = rebuild_survivors(reduced, k, algorithm, dead=dead)
        out = RepairOutcome(
            failed_node=node,
            role=role,
            action="recluster",
            escalated=False,
            scope_heads=frozenset(backbone.heads),
            partitioned=False,
            backbone=backbone,
        )
        report.outcomes.append(out)
        report.actions["recluster"] += 1
        current = reduced
    report.survivors_backbone = backbone
    return report
