"""End-to-end traffic experiment: generate, route, account, render.

This is the ``repro-khop traffic`` command's engine: build a paper-style
unit-disk instance, generate a named workload, route it in one batch over
the chosen backbone, account who carried it, and (optionally) run the
traffic-driven lifetime comparison of rotation vs static heads.  All
output is plain text for the headless benchmark environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cds.routing import RoutingReport, routing_report
from ..core.pipeline import BackboneResult, run_pipeline
from ..errors import InvalidParameterError
from ..net.energy import EnergyParams
from ..net.paths import PathOracle
from ..net.topology import random_topology
from ..obs import publish_oracle_stats, span
from .congestion import (
    CongestionModel,
    CongestionReport,
    congestion_report,
)
from .lifetime import LifetimeReport, compare_rotation_under_traffic
from .load import LoadReport, measure_load
from .router import BatchRouter
from .workloads import Workload, make_workload

__all__ = ["TrafficReport", "run_traffic", "render_traffic"]


@dataclass(frozen=True)
class TrafficReport:
    """Everything one traffic run measured.

    Attributes:
        backbone: the backbone that carried the flows.
        workload: the routed workload.
        load: batch load/congestion accounting.
        routing: sampled table-size/stretch report for context.
        lifetimes: rotation-vs-static lifetime reports (None unless the
            run asked for lifetime epochs).
        congestion: offered-vs-capacity summary (None unless the run set
            a radio budget).
        balance_stats: multipath optimizer counters (None unless the run
            balanced).
    """

    backbone: BackboneResult
    workload: Workload
    load: LoadReport
    routing: RoutingReport
    lifetimes: Optional[dict[str, LifetimeReport]]
    congestion: Optional[CongestionReport] = None
    balance_stats: Optional[dict[str, int]] = None


def run_traffic(
    *,
    n: int = 400,
    degree: float = 8.0,
    k: int = 2,
    algorithm: str = "AC-LMST",
    workload: str = "uniform",
    flows: int = 5000,
    seed: int = 7,
    lifetime_epochs: int = 0,
    energy_params: EnergyParams | None = None,
    backend: str | None = None,
    balance: bool = False,
    radio_budget: float | None = None,
) -> TrafficReport:
    """Build an instance, route a workload batch, account the load.

    Args:
        n / degree / seed: the §4 unit-disk instance parameters.
        k: cluster radius.
        algorithm: backbone pipeline.
        workload: workload family name (see
            :data:`~repro.traffic.workloads.WORKLOADS`).
        flows: approximate number of offered flows.
        lifetime_epochs: when > 0, also run the traffic-driven lifetime
            comparison (rotation vs static) for this many epochs.
        energy_params: energy constants for the lifetime comparison.
        backend: pin the hop-distance backend (``"lazy"`` or
            ``"landmark"``); None keeps the graph's default (``"lazy"``).
            Batch routing is pair-query-heavy, so the CLI pins
            ``"landmark"`` — results are identical on both backends.
        balance: route with the load-adaptive multipath mode
            (``repro-khop traffic --balance``) instead of canonical
            single-path walks; the optimizer's counters land in
            ``balance_stats``.
        radio_budget: when set, derive per-link capacities from the
            backbone (:class:`~repro.traffic.congestion.CongestionModel`)
            and report offered load against them; also threads into the
            lifetime comparison so congested heads drain faster.

    The whole run is traced when the observability layer is enabled
    (``repro-khop traffic --trace``): a root ``traffic`` span over
    nested ``topology`` / ``cluster`` / ``cds`` / ``labels`` /
    ``router`` / ``epochs`` stages, plus the oracle/path-cache stats
    published into the metrics registry.
    """
    if flows < 1:
        raise InvalidParameterError(f"flows must be >= 1, got {flows}")
    with span(
        "traffic",
        n=n,
        k=k,
        algorithm=algorithm,
        workload=workload,
        flows=flows,
        seed=seed,
    ):
        with span("topology", n=n):
            topo = random_topology(n, degree=degree, seed=seed)
            graph = topo.graph
            if backend is not None:
                graph.use_distance_backend(backend)
        backbone = run_pipeline(graph, k, algorithm)
        wl = make_workload(workload, graph.n, flows, seed=seed)
        with span("router", flows=wl.num_flows, balance=balance):
            batch = BatchRouter(backbone)
            routed = batch.route_flows(wl, with_shortest=True, balance=balance)
        congestion = None
        if radio_budget is not None:
            congestion = congestion_report(
                CongestionModel.from_backbone(
                    backbone, radio_budget=radio_budget
                ),
                routed,
            )
        with span("epochs"):
            # The offered batch is one traffic epoch; the lifetime loop
            # (when requested) adds one child span per drained epoch.
            with span("epoch", step=0):
                load = measure_load(backbone, routed)
                # The stretch/table sample shares the batch run's warmed
                # head router.
                routing = routing_report(
                    backbone,
                    PathOracle(graph),
                    samples=min(50, flows),
                    seed=seed,
                    router=batch.router,
                )
            lifetimes = None
            if lifetime_epochs > 0:
                lifetimes = compare_rotation_under_traffic(
                    graph,
                    k,
                    wl,
                    epochs=lifetime_epochs,
                    algorithm=algorithm,
                    params=energy_params,
                    radio_budget=radio_budget,
                    balance=balance,
                )
        publish_oracle_stats(graph.oracle.stats())
        publish_oracle_stats(batch.path_oracle.stats(), prefix="paths")
    return TrafficReport(
        backbone=backbone,
        workload=wl,
        load=load,
        routing=routing,
        lifetimes=lifetimes,
        congestion=congestion,
        balance_stats=dict(batch.last_balance) if balance else None,
    )


def render_traffic(report: TrafficReport) -> str:
    """Human-readable summary of one traffic run."""
    b = report.backbone
    wl = report.workload
    ld = report.load
    g = b.clustering.graph
    lines = [
        f"instance: n={g.n}, m={g.m}, k={b.clustering.k}, "
        f"algorithm={b.algorithm}",
        f"backbone: {len(b.heads)} heads + {b.num_gateways} gateways "
        f"= CDS {b.cds_size}",
        f"workload: {wl.name}, {wl.num_flows} flows, "
        f"{wl.total_packets} packets",
        "",
        "traffic:",
        f"  packet-hops        {ld.packet_hops}",
        f"  stretch            mean {ld.mean_stretch:.3f}  "
        f"p95 {ld.p95_stretch:.3f}  max {ld.max_stretch:.3f}",
        f"  node load          max {ld.max_node_load:.0f}  "
        f"p99 {ld.p99_node_load:.0f}  p95 {ld.p95_node_load:.0f}  "
        f"p50 {ld.p50_node_load:.0f}",
        f"  CDS share of tx    {ld.cds_share:.1%}",
        f"  backbone fairness  {ld.backbone_fairness:.3f} (Jain)",
        f"  busiest links      "
        + ", ".join(
            f"{a}-{b_} ({c})"
            for (a, b_), c in sorted(
                ld.link_util.items(), key=lambda kv: -kv[1]
            )[:3]
        ),
        "",
        "routing tables (sampled):",
        f"  cluster tables     mean {report.routing.mean_table:.1f}, "
        f"max {report.routing.max_table} "
        f"(flat baseline {report.routing.flat_table})",
    ]
    if report.balance_stats is not None:
        bs = report.balance_stats
        lines.insert(
            lines.index("routing tables (sampled):") - 1,
            f"  multipath balance  {bs.get('flows_rerouted', 0)} flows "
            f"rerouted across {bs.get('candidates', 0)} candidate walks "
            f"({bs.get('groups', 0)} head pairs, "
            f"{bs.get('moves', 0)} hot-link moves)",
        )
    if report.congestion is not None:
        cg = report.congestion
        lines.append("")
        lines.append("congestion (offered vs capacity):")
        lines.append(
            f"  links              {cg.congested_links} of "
            f"{cg.loaded_links} loaded links over capacity "
            f"({cg.links} total)"
        )
        lines.append(
            f"  fluid drops        {cg.dropped_packets:.0f} of "
            f"{cg.offered_packets:.0f} link crossings "
            f"({cg.drop_fraction:.1%}); worst utilization "
            f"{cg.worst_utilization:.2f}x"
        )
    if report.lifetimes is not None:
        lines.append("")
        lines.append("traffic-driven lifetime (rotation vs static):")
        for scheme in ("energy", "static"):
            lr = report.lifetimes[scheme]
            part = (
                f"partitioned at epoch {lr.first_partition_epoch}"
                if lr.first_partition_epoch is not None
                else f"survived all {len(lr.epochs)} epochs"
            )
            lines.append(
                f"  {scheme:7s}: lifetime {lr.lifetime:3d} epochs, "
                f"{lr.total_deaths} deaths, "
                f"{lr.distinct_heads} distinct heads, {part}"
            )
    return "\n".join(lines)


def main(
    *,
    n: int = 400,
    degree: float = 8.0,
    k: int = 2,
    algorithm: str = "AC-LMST",
    workload: str = "uniform",
    flows: int = 5000,
    seed: int = 7,
    lifetime_epochs: int = 0,
    backend: str | None = None,
    balance: bool = False,
    radio_budget: float | None = None,
) -> None:
    """CLI driver: run one traffic experiment and print the summary."""
    report = run_traffic(
        n=n,
        degree=degree,
        k=k,
        algorithm=algorithm,
        workload=workload,
        flows=flows,
        seed=seed,
        lifetime_epochs=lifetime_epochs,
        backend=backend,
        balance=balance,
        radio_budget=radio_budget,
    )
    print(render_traffic(report))
