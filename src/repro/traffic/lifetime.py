"""Traffic-driven lifetime: load drains energy, deaths drive §3.3 repair.

The rotation simulation (:mod:`repro.maintenance.rotation`) charges only
*idle* role drain; churn (:mod:`repro.maintenance.churn`) kills *random*
nodes.  This module closes the loop the paper actually argues about: the
measured forwarding load of a real workload is charged against
:class:`~repro.net.energy.EnergyModel`, so clusterheads and gateways —
who carry the transit traffic — drain first; nodes whose battery empties
become failures fed through :func:`~repro.maintenance.repair.repair`; the
surviving backbone carries the replayed flows of the next epoch.

Each epoch of :func:`simulate_traffic_lifetime`:

1. (``scheme="energy"`` only) re-elect clusterheads by residual energy —
   the paper's §3.3 rotation — and rebuild the backbone;
2. route the workload's surviving flows over the backbone
   (:class:`~repro.traffic.router.BatchRouter`) and account the load;
3. charge transmit/receive costs per node from the load vectors, plus
   role-dependent idle drain;
4. feed every newly dead node through the repair ladder, in order; stop
   at the first repair that reports a network partition.

Comparing ``scheme="energy"`` against ``scheme="static"`` (initial heads
kept until repairs force changes) under the *same* workload measures how
much rotation extends time-to-first-partition — the quantitative form of
"rotate the role of clusterhead to prolong the average lifespan".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> traffic)
    from ..faults.delivery import LossModel

from ..core.pipeline import BackboneResult
from ..core.priorities import ResidualEnergy
from ..errors import InvalidParameterError
from ..maintenance.repair import rebuild_survivors, repair
from ..maintenance.step import carry_repair
from ..net.energy import EnergyModel, EnergyParams
from ..net.graph import Graph
from ..obs import span
from .congestion import CongestionModel
from .load import lossy_load, measure_load
from .router import BatchRouter
from .workloads import Workload

__all__ = [
    "LifetimeEpoch",
    "LifetimeReport",
    "simulate_traffic_lifetime",
    "compare_rotation_under_traffic",
]


@dataclass(frozen=True)
class LifetimeEpoch:
    """One epoch's snapshot of the traffic-driven lifetime loop.

    Attributes:
        epoch: epoch index.
        heads: clusterheads that served this epoch.
        cds_size: backbone size that carried the epoch's traffic.
        flows_routed: surviving flows actually routed.
        packet_hops: demand-weighted transmissions this epoch.
        max_node_load: heaviest single node's message load.
        min_residual / mean_residual: residual energy over *alive* nodes
            after the epoch's drain.
        deaths: nodes that died at the end of this epoch, in repair order.
        delivered: demand-weighted fraction of offered packets delivered
            this epoch (1.0 in the lossless world).
    """

    epoch: int
    heads: tuple[int, ...]
    cds_size: int
    flows_routed: int
    packet_hops: int
    max_node_load: float
    min_residual: float
    mean_residual: float
    deaths: tuple[int, ...]
    delivered: float = 1.0


@dataclass
class LifetimeReport:
    """Aggregate outcome of one traffic-driven lifetime simulation.

    Attributes:
        scheme: ``"energy"`` (rotation) or ``"static"``.
        epochs: per-epoch snapshots, in order.
        deaths: ``(epoch, node, role)`` for every death, in repair order.
        repair_actions: histogram of repair-ladder actions taken.
        head_service: node -> epochs served as clusterhead.
        first_partition_epoch: epoch whose deaths partitioned the
            network (simulation stops there), or None.
        router_rebuilds_avoided: repairs after which the whole
            head-routing layer (Dijkstra trees, head walks) survived into
            the next epoch via :meth:`BatchRouter.inherit_edge_delta` instead
            of being rebuilt from scratch.
        router_legs_inherited: resolved member<->head canonical paths
            carried across repairs.
    """

    scheme: str
    epochs: list[LifetimeEpoch] = field(default_factory=list)
    deaths: list[tuple[int, int, str]] = field(default_factory=list)
    repair_actions: Counter = field(default_factory=Counter)
    head_service: Counter = field(default_factory=Counter)
    first_partition_epoch: Optional[int] = None
    router_rebuilds_avoided: int = 0
    router_legs_inherited: int = 0

    @property
    def lifetime(self) -> int:
        """Epochs fully survived before the first partition."""
        if self.first_partition_epoch is not None:
            return self.first_partition_epoch
        return len(self.epochs)

    @property
    def distinct_heads(self) -> int:
        """How many different nodes ever served as clusterhead."""
        return len(self.head_service)

    @property
    def total_deaths(self) -> int:
        """Nodes that ran out of energy during the simulation."""
        return len(self.deaths)

    @property
    def mean_delivered(self) -> float:
        """Mean per-epoch delivered fraction (1.0 when lossless)."""
        if not self.epochs:
            return 1.0
        return float(
            sum(e.delivered for e in self.epochs) / len(self.epochs)
        )


def simulate_traffic_lifetime(
    graph: Graph,
    k: int,
    workload: Workload,
    *,
    epochs: int,
    scheme: str = "energy",
    algorithm: str = "AC-LMST",
    params: EnergyParams | None = None,
    idle_rounds_per_epoch: int = 1,
    loss: Optional["LossModel"] = None,
    max_attempts: int = 3,
    backoff_base: int = 2,
    delivery_seed: int = 0,
    radio_budget: Optional[float] = None,
    balance: bool = False,
) -> LifetimeReport:
    """Replay ``workload`` for up to ``epochs`` epochs of drain + repair.

    Args:
        graph: connected network.
        k: cluster radius.
        workload: the flow batch replayed every epoch (flows whose
            endpoints died are dropped from later epochs).
        epochs: maximum number of epochs to simulate.
        scheme: ``"energy"`` re-elects heads by residual energy every
            epoch (rotation); ``"static"`` keeps the initial heads,
            changing them only when the repair ladder forces it.
        algorithm: backbone pipeline to maintain.
        params: energy constants (default :class:`EnergyParams`).
        idle_rounds_per_epoch: role-dependent idle rounds charged per
            epoch on top of the traffic load.
        loss: optional per-link loss model
            (:class:`~repro.faults.delivery.LossModel`).  When set, every
            epoch's flows pass through the lossy delivery engine
            (:func:`~repro.faults.delivery.deliver`): failed hops
            truncate the walk, retries re-charge the surviving prefix,
            and the energy ledger is charged with the *actual* per-node
            transmit/receive counts — so lossy regions drain first.
        max_attempts / backoff_base: retry budget and exponential
            backoff base forwarded to the delivery engine.
        delivery_seed: base seed for the per-epoch loss draws (epoch
            ``e`` draws from ``delivery_seed + e``).
        radio_budget: optional per-radio packet budget; when set, each
            epoch's backbone gets a
            :class:`~repro.traffic.congestion.CongestionModel` and the
            batch's own offered load composes fluid-queue drops into the
            delivery — congested heads retransmit and therefore *drain
            faster* (a lossy delivery runs even when ``loss`` is None).
        balance: route each epoch's flows with the load-adaptive
            multipath mode
            (:meth:`~repro.traffic.router.BatchRouter.route_flows`
            ``balance=True``) instead of canonical single-path walks.
    """
    if scheme not in ("energy", "static"):
        raise InvalidParameterError(f"unknown lifetime scheme {scheme!r}")
    if epochs < 1:
        raise InvalidParameterError("epochs must be >= 1")
    if workload.n != graph.n:
        raise InvalidParameterError(
            f"workload addresses {workload.n} nodes, graph has {graph.n}"
        )
    if idle_rounds_per_epoch < 0:
        raise InvalidParameterError("idle_rounds_per_epoch must be >= 0")
    if loss is not None and loss.n != graph.n:
        raise InvalidParameterError(
            f"loss model covers {loss.n} nodes, graph has {graph.n}"
        )

    model = EnergyModel(graph.n, params)
    alive = np.ones(graph.n, dtype=bool)
    dead: set[int] = set()
    current = graph
    backbone: Optional[BackboneResult] = None
    router: Optional[BatchRouter] = None
    report = LifetimeReport(scheme=scheme)

    for epoch in range(epochs):
        with span("epoch", scheme=scheme, epoch=epoch):
            if router is None or scheme == "energy":
                priority = (
                    ResidualEnergy(model.residuals()) if scheme == "energy" else None
                )
                router = BatchRouter(
                    rebuild_survivors(
                        current, k, algorithm, dead=dead, priority=priority
                    )
                )
            backbone = router.result
            # Snapshot before the deaths loop: repairs may change the heads,
            # but *these* are the nodes that carried this epoch's traffic.
            epoch_heads = backbone.heads
            epoch_cds_size = backbone.cds_size
            for h in epoch_heads:
                report.head_service[h] += 1

            routed = router.route_flows(
                workload.restrict(alive), with_shortest=False, balance=balance
            )
            delivered = 1.0
            if loss is not None or radio_budget is not None:
                # Runtime import: faults.delivery imports traffic.router at
                # module level, so traffic must only pull it lazily.
                from ..faults.delivery import LossModel, deliver

                congestion = (
                    CongestionModel.from_backbone(
                        backbone, radio_budget=radio_budget
                    )
                    if radio_budget is not None
                    else None
                )
                delivery = deliver(
                    routed,
                    loss
                    if loss is not None
                    else LossModel.uniform(graph.n, 0.0),
                    seed=delivery_seed + epoch,
                    max_attempts=max_attempts,
                    backoff_base=backoff_base,
                    congestion=congestion,
                )
                routed = routed.with_delivery(delivery)
                load = lossy_load(backbone, routed, delivery)
                delivered = routed.delivered_fraction()
            else:
                load = measure_load(backbone, routed)
            model.charge_load(load.tx, load.rx)
            for _ in range(idle_rounds_per_epoch):
                model.charge_idle_round(set(backbone.cds))

            deaths = [
                u
                for u in np.flatnonzero(alive).tolist()
                if not model.is_alive(u)
            ]
            partitioned = False
            for node in deaths:
                alive[node] = False
                dead.add(node)
                outcome = repair(backbone, node)
                report.deaths.append((epoch, node, outcome.role))
                report.repair_actions[outcome.action] += 1
                if outcome.partitioned:
                    partitioned = True
                    break
                backbone = outcome.backbone
                current = backbone.clustering.graph
                if scheme == "static":
                    # The repaired backbone serves the next epoch's flows:
                    # carry the routing layer across instead of rebuilding.
                    # Under rotation the next epoch re-elects heads anyway,
                    # so inheriting would be wasted work.
                    router, inherited = carry_repair(router, outcome)
                    if inherited["head_graph_unchanged"]:
                        report.router_rebuilds_avoided += 1
                    report.router_legs_inherited += inherited["legs"]

            residuals = model.residuals()
            alive_res = residuals[alive] if alive.any() else residuals
            report.epochs.append(
                LifetimeEpoch(
                    epoch=epoch,
                    heads=epoch_heads,
                    cds_size=epoch_cds_size,
                    flows_routed=routed.num_flows,
                    packet_hops=load.packet_hops,
                    max_node_load=load.max_node_load,
                    min_residual=float(alive_res.min()) if alive_res.size else 0.0,
                    mean_residual=float(alive_res.mean()) if alive_res.size else 0.0,
                    deaths=tuple(deaths),
                    delivered=delivered,
                )
            )
            if partitioned:
                report.first_partition_epoch = epoch
                break
    return report


def compare_rotation_under_traffic(
    graph: Graph,
    k: int,
    workload: Workload,
    *,
    epochs: int,
    algorithm: str = "AC-LMST",
    params: EnergyParams | None = None,
    idle_rounds_per_epoch: int = 1,
    loss: Optional["LossModel"] = None,
    radio_budget: Optional[float] = None,
    balance: bool = False,
) -> dict[str, LifetimeReport]:
    """Run both schemes on identical fresh energy ledgers and workloads.

    Returns ``{"energy": ..., "static": ...}`` — the rotation-vs-static
    lifetime comparison the acceptance scenario asserts on.  A ``loss``
    model (and a ``radio_budget`` congestion regime) applies identically
    to both schemes (same per-epoch seeds).
    """
    return {
        scheme: simulate_traffic_lifetime(
            graph,
            k,
            workload,
            epochs=epochs,
            scheme=scheme,
            algorithm=algorithm,
            params=params,
            idle_rounds_per_epoch=idle_rounds_per_epoch,
            loss=loss,
            radio_budget=radio_budget,
            balance=balance,
        )
        for scheme in ("energy", "static")
    }
