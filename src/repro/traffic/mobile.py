"""Mobility-coupled traffic: replay a workload over RandomWaypoint snapshots.

The churn loop (:mod:`repro.traffic.lifetime`) measures traffic under a
*shrinking* node set; this module measures it under *motion* — the other
half of the paper's §3.3 dynamics ("nodes that move away") and the
ROADMAP's "mobility-coupled traffic" item.  Nodes move under random
waypoint; each time step the unit-disk topology is re-snapshotted, the
backbone rebuilt, and the same flow workload re-routed, producing
per-epoch series of stretch, load concentration, Jain fairness and
delivery.

Two engines produce **walk-identical** results (the acceptance gate of
``benchmarks/test_bench_mobility.py``):

* ``engine="rebuild"`` — the from-scratch baseline: every snapshot gets a
  cold :class:`~repro.net.graph.Graph`, oracle, clustering, backbone and
  router;
* ``engine="delta"`` — the incremental path this module exists for.  The
  snapshot's unit-disk edge set is diffed against the previous graph
  (:func:`~repro.net.mobility.snapshot_edge_delta`) and applied through
  :meth:`Graph.with_edge_delta`, so distance rows and balls carry
  through the oracle's edge-delta certificate; then the maintenance step
  :func:`~repro.maintenance.step.carry_delta` carries canonical paths
  (virtual links *and* member<->head legs share one
  :class:`~repro.net.paths.PathOracle`) and the head-graph routing layer
  onto the snapshot's backbone.
  Clusterhead election re-runs deterministically every snapshot (the
  batched engine is cheap, and keeping a merely-still-valid old
  clustering would diverge from the rebuild baseline).

Disconnected snapshots are not routed by default: the epoch records the
fraction of flows whose endpoints still share a component (*delivery*),
the graph keeps evolving by deltas underneath, and pending touched nodes
accumulate so the next connected snapshot's inheritance remains sound
across the gap.  With ``degraded=True`` the loop instead falls back to
**component-local routing** (:func:`route_degraded`): every surviving
component is clustered and routed on its own backbone, flows whose
endpoints share a component still move, and cross-component flows carry
placeholder walks flagged with a ``valid=False`` bit.  The report's
``recovery_times`` records how many epochs each outage lasted before the
network reconnected and routing was fully re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.stats import jaccard_distance
from ..core.clustering import khop_cluster
from ..core.pipeline import _LOCALIZED, BackboneResult, build_backbone
from ..errors import InvalidParameterError
from ..maintenance.repair import rebuild_survivors
from ..maintenance.step import carry_delta
from ..net.graph import Graph
from ..net.mobility import RandomWaypoint, snapshot_edge_delta
from ..net.oracle import DIST_DTYPE
from ..net.paths import PathOracle
from ..net.topology import Topology
from ..obs import publish_counters, span
from .load import measure_load
from .router import BatchRouter, RoutedFlows
from .workloads import Workload

__all__ = [
    "MobileEpoch",
    "MobileTrafficReport",
    "simulate_mobile_traffic",
    "route_degraded",
    "render_mobile",
]


@dataclass(frozen=True)
class MobileEpoch:
    """One snapshot's traffic measurements.

    Attributes:
        step: mobility time step (0 = the initial topology).
        connected: whether the snapshot's unit-disk graph was connected
            (only connected snapshots are clustered and routed).
        edges_added / edges_removed: the snapshot delta's size.
        delivered: fraction of flows whose endpoints share a component
            (1.0 on every connected snapshot).
        flows_routed: flows actually routed (0 when disconnected).
        mean_stretch / p95_stretch / max_stretch: walk-vs-shortest ratios
            (NaN when nothing was routed).
        max_node_load: heaviest single node's message load.
        backbone_fairness: Jain index of load across the CDS.
        cds_share: fraction of packet-hops transmitted by CDS nodes.
        num_heads / cds_size: backbone shape that served the snapshot.
        head_churn: Jaccard distance to the previous routed snapshot's
            head set (NaN for the first routed snapshot).
        degraded: True when a disconnected snapshot was served by
            component-local routing (:func:`route_degraded`) instead of
            being skipped — its metrics then cover the routable subset.
    """

    step: int
    connected: bool
    edges_added: int
    edges_removed: int
    delivered: float
    flows_routed: int
    mean_stretch: float
    p95_stretch: float
    max_stretch: float
    max_node_load: float
    backbone_fairness: float
    cds_share: float
    num_heads: int
    cds_size: int
    head_churn: float
    degraded: bool = False


@dataclass
class MobileTrafficReport:
    """Aggregate outcome of one mobility-coupled traffic run.

    Attributes:
        engine: ``"delta"`` or ``"rebuild"``.
        k / algorithm: backbone parameters.
        epochs: per-snapshot measurements, in step order.
        skipped_disconnected: snapshots that were not routed.
        rows_inherited / balls_inherited: distance-oracle cache entries
            carried whole across snapshot deltas (delta engine only);
            ``rows_inherited`` counts full exact rows — certified
            verbatim plus dynamic-BFS patched.
        rows_partial_inherited: always 0 — the oracle drops a row it
            cannot carry whole instead of keeping a valid prefix.  Kept
            because the end-to-end benchmark's mobility-2k workload
            reads it.
        paths_inherited: canonical paths (virtual links + legs) carried.
        router_rebuilds_avoided: snapshots whose whole head-routing layer
            (Dijkstra trees, head walks) survived structurally.
        degraded_epochs: disconnected snapshots served component-locally
            (``degraded=True`` runs only).
        recovery_times: length in epochs of every completed outage — from
            the first disconnected snapshot of a stretch to the snapshot
            before the network reconnected and routing re-validated.
        walks: per-epoch routed walks when ``collect_walks=True`` (the
            walk-identity benchmark compares these across engines).
    """

    engine: str
    k: int
    algorithm: str
    epochs: list[MobileEpoch] = field(default_factory=list)
    skipped_disconnected: int = 0
    rows_inherited: int = 0
    rows_partial_inherited: int = 0
    balls_inherited: int = 0
    paths_inherited: int = 0
    router_rebuilds_avoided: int = 0
    degraded_epochs: int = 0
    recovery_times: list[int] = field(default_factory=list)
    walks: Optional[list[list[tuple[int, ...]]]] = None

    def routed_epochs(self) -> list[MobileEpoch]:
        """The epochs that actually carried traffic."""
        return [
            e
            for e in self.epochs
            if e.connected or (e.degraded and e.flows_routed > 0)
        ]

    def mean(self, metric: str) -> float:
        """Mean of one per-epoch metric over the routed epochs."""
        vals = [
            getattr(e, metric)
            for e in self.routed_epochs()
            if not math.isnan(float(getattr(e, metric)))
        ]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def delivery_rate(self) -> float:
        """Mean delivered fraction over *all* epochs (disconnected included)."""
        if not self.epochs:
            return float("nan")
        return float(np.mean([e.delivered for e in self.epochs]))


def route_degraded(
    graph: Graph,
    k: int,
    workload: Workload,
    *,
    algorithm: str = "AC-LMST",
) -> tuple[BackboneResult, RoutedFlows]:
    """Component-local routing over a disconnected snapshot.

    Clusters every surviving component and builds one backbone spanning
    them all (:func:`~repro.maintenance.repair.rebuild_survivors`) —
    localized algorithms only:
    G-MST needs the global metric closure, which does not exist on a
    disconnected graph — and routes the flows whose endpoints share a
    component.  Cross-component flows get single-node placeholder walks
    flagged ``valid=False``: the degraded world's stale-walk bit.  Their
    entries carry no traffic and must not be trusted as routes.

    Returns the per-component backbone and the merged
    :class:`RoutedFlows` covering *every* flow of ``workload`` (real
    walks where routable, placeholders elsewhere, ``valid`` telling
    them apart).
    """
    if algorithm not in _LOCALIZED:
        raise InvalidParameterError(
            f"degraded routing needs a localized algorithm "
            f"(one of {sorted(_LOCALIZED)}), got {algorithm!r}"
        )
    labels = graph.component_labels()
    routable = labels[workload.sources] == labels[workload.targets]
    backbone = rebuild_survivors(graph, k, algorithm)
    routed_sub = BatchRouter(backbone).route_flows(
        workload.subset(routable), with_shortest=True
    )

    idx = np.flatnonzero(routable)
    walks: list[tuple[int, ...]] = [
        (int(s),) for s in workload.sources.tolist()
    ]
    head_paths: list[tuple[int, ...]] = [() for _ in walks]
    hops = np.zeros(workload.num_flows, dtype=DIST_DTYPE)
    shortest = np.zeros(workload.num_flows, dtype=DIST_DTYPE)
    hops[idx] = routed_sub.hops
    shortest[idx] = routed_sub.shortest
    for j, i in enumerate(idx.tolist()):
        walks[i] = routed_sub.walks[j]
        head_paths[i] = routed_sub.head_paths[j]
    return backbone, RoutedFlows(
        workload=workload,
        walks=walks,
        hops=hops,
        shortest=shortest,
        head_paths=head_paths,
        valid=routable,
    )


def simulate_mobile_traffic(
    topology: Topology,
    k: int,
    workload: Workload,
    *,
    snapshots: int,
    speed: tuple[float, float] = (0.5, 1.5),
    seed: int = 0,
    algorithm: str = "AC-LMST",
    engine: str = "delta",
    collect_walks: bool = False,
    degraded: bool = False,
) -> MobileTrafficReport:
    """Move nodes, re-route ``workload`` on every snapshot, measure traffic.

    Args:
        topology: initial (connected) topology; its radius is reused for
            every snapshot, its positions seed the waypoint process.
        k: cluster radius.
        workload: the flow batch re-routed on every connected snapshot.
        snapshots: mobility steps to simulate (epoch 0 is the unmoved
            initial topology, so ``snapshots + 1`` epochs are reported).
        speed: random-waypoint speed range, units per step.
        seed: RNG seed for the waypoint process.
        algorithm: backbone pipeline.
        engine: ``"delta"`` (incremental, the default) or ``"rebuild"``
            (from-scratch baseline) — walk-identical by construction.
            The delta engine carries the oracle's caches on either
            backend; the rebuild engine starts every snapshot cold.
        collect_walks: keep every epoch's routed walks on the report
            (memory-heavy; the equivalence benchmark needs it).
        degraded: serve disconnected snapshots by component-local
            routing (:func:`route_degraded`) instead of skipping them —
            localized algorithms only.  Incremental caches are left
            untouched during the outage, so the next connected
            snapshot's inheritance stays sound; the report records each
            outage's length in ``recovery_times``.
    """
    if snapshots < 1:
        raise InvalidParameterError(f"snapshots must be >= 1, got {snapshots}")
    if engine not in ("delta", "rebuild"):
        raise InvalidParameterError(f"unknown mobility engine {engine!r}")
    if degraded and algorithm not in _LOCALIZED:
        raise InvalidParameterError(
            f"degraded mode needs a localized algorithm "
            f"(one of {sorted(_LOCALIZED)}), got {algorithm!r}"
        )
    if workload.n != topology.graph.n:
        raise InvalidParameterError(
            f"workload addresses {workload.n} nodes, topology has {topology.graph.n}"
        )
    mob = RandomWaypoint(
        topology.positions,
        topology.area,
        speed,
        np.random.default_rng(seed),
    )
    # Both engines start from a cold copy so the comparison is honest:
    # neither inherits whatever caches the caller's topology accumulated.
    graph = Graph(
        topology.graph.n, topology.graph.edge_array
    ).use_distance_backend(topology.graph.distance_backend)
    report = MobileTrafficReport(engine=engine, k=k, algorithm=algorithm)
    if collect_walks:
        report.walks = []

    prev_router: Optional[BatchRouter] = None
    prev_heads: Optional[set] = None
    # Touched nodes of every delta since the last *routed* snapshot: a
    # disconnected gap composes deltas, and inheritance across the gap
    # must be judged against the union of their endpoints.
    pending_touched: set[int] = set()
    # Consecutive disconnected snapshots of the current outage (degraded
    # or skipped alike) — flushed to recovery_times on reconnection.
    outage = 0

    with span("mobility", engine=engine, k=k, snapshots=snapshots):
        for step in range(snapshots + 1):
            with span("epoch", step=step):
                if step == 0:
                    added: list = []
                    removed: list = []
                else:
                    mob.step()
                    snapshot = mob.snapshot_edges(topology.radius)
                    added, removed = snapshot_edge_delta(graph, snapshot)
                    if engine == "delta":
                        derived = graph.with_edge_delta(added, removed)
                        # Empty deltas return self (re-reading its oracle
                        # would double-count), and a graph that never
                        # built an oracle carried none.
                        carried = derived._oracle if derived is not graph else None
                        if carried is not None:
                            stats = carried.stats()
                            report.rows_inherited += stats.rows_inherited
                            report.balls_inherited += stats.balls_inherited
                            publish_counters(
                                "oracle.inherit",
                                {
                                    "rows": stats.rows_inherited,
                                    "balls": stats.balls_inherited,
                                },
                            )
                        graph = derived
                    else:
                        graph = Graph(graph.n, snapshot).use_distance_backend(
                            graph.distance_backend
                        )
                    pending_touched.update(added.ravel().tolist())
                    pending_touched.update(removed.ravel().tolist())

                if not graph.is_connected():
                    delivered = workload.delivered_fraction(graph.component_labels())
                    outage += 1
                    if degraded:
                        dg_backbone, dg_routed = route_degraded(
                            graph, k, workload, algorithm=algorithm
                        )
                        # measure_load masks stretch stats by dg_routed.valid
                        # itself, so the placeholder walks never pollute them.
                        dg_load = measure_load(dg_backbone, dg_routed)
                        report.degraded_epochs += 1
                        report.epochs.append(
                            MobileEpoch(
                                step=step,
                                connected=False,
                                edges_added=len(added),
                                edges_removed=len(removed),
                                delivered=delivered,
                                flows_routed=dg_routed.num_valid,
                                mean_stretch=dg_load.mean_stretch,
                                p95_stretch=dg_load.p95_stretch,
                                max_stretch=dg_load.max_stretch,
                                max_node_load=dg_load.max_node_load,
                                backbone_fairness=dg_load.backbone_fairness,
                                cds_share=dg_load.cds_share,
                                num_heads=len(dg_backbone.heads),
                                cds_size=dg_backbone.cds_size,
                                head_churn=float("nan"),
                                degraded=True,
                            )
                        )
                        if collect_walks:
                            report.walks.append(dg_routed.walks)
                        continue
                    report.skipped_disconnected += 1
                    report.epochs.append(
                        MobileEpoch(
                            step=step,
                            connected=False,
                            edges_added=len(added),
                            edges_removed=len(removed),
                            delivered=delivered,
                            flows_routed=0,
                            mean_stretch=float("nan"),
                            p95_stretch=float("nan"),
                            max_stretch=float("nan"),
                            max_node_load=0.0,
                            backbone_fairness=float("nan"),
                            cds_share=float("nan"),
                            num_heads=0,
                            cds_size=0,
                            head_churn=float("nan"),
                        )
                    )
                    if collect_walks:
                        report.walks.append([])
                    continue

                if outage:
                    report.recovery_times.append(outage)
                    outage = 0
                clustering = khop_cluster(graph, k)
                if engine == "delta" and prev_router is not None:
                    router, stats = carry_delta(
                        prev_router, clustering, pending_touched
                    )
                    report.paths_inherited += stats["paths"]
                    if stats["head_graph_unchanged"]:
                        report.router_rebuilds_avoided += 1
                else:
                    paths = PathOracle(graph)
                    router = BatchRouter(
                        build_backbone(clustering, algorithm, oracle=paths),
                        oracle=paths,
                    )
                backbone = router.result
                pending_touched = set()

                routed = router.route_flows(workload, with_shortest=True)
                load = measure_load(backbone, routed)
                heads = set(backbone.heads)
                report.epochs.append(
                    MobileEpoch(
                        step=step,
                        connected=True,
                        edges_added=len(added),
                        edges_removed=len(removed),
                        delivered=1.0,
                        flows_routed=routed.num_flows,
                        mean_stretch=load.mean_stretch,
                        p95_stretch=load.p95_stretch,
                        max_stretch=load.max_stretch,
                        max_node_load=load.max_node_load,
                        backbone_fairness=load.backbone_fairness,
                        cds_share=load.cds_share,
                        num_heads=len(heads),
                        cds_size=backbone.cds_size,
                        head_churn=(
                            jaccard_distance(prev_heads, heads)
                            if prev_heads is not None
                            else float("nan")
                        ),
                    )
                )
                if collect_walks:
                    report.walks.append(routed.walks)
                prev_router, prev_heads = router, heads
    return report


def render_mobile(report: MobileTrafficReport) -> str:
    """Human-readable per-epoch table plus run summary."""
    lines = [
        f"mobility-coupled traffic: engine={report.engine}, "
        f"k={report.k}, algorithm={report.algorithm}",
        "",
        "epoch  ±edges  deliv  stretch(mean/p95)  maxload  jain   heads  cds  churn",
    ]
    for e in report.epochs:
        if not e.connected and not e.degraded:
            lines.append(
                f"{e.step:5d}  +{e.edges_added}/-{e.edges_removed}  "
                f"{e.delivered:.2f}   -- disconnected, not routed --"
            )
            continue
        churn = f"{e.head_churn:.2f}" if not math.isnan(e.head_churn) else "  - "
        tag = "  [degraded]" if e.degraded else ""
        lines.append(
            f"{e.step:5d}  +{e.edges_added}/-{e.edges_removed}  "
            f"{e.delivered:.2f}  {e.mean_stretch:.3f} / {e.p95_stretch:.3f}"
            f"      {e.max_node_load:7.0f}  {e.backbone_fairness:.3f}  "
            f"{e.num_heads:5d}  {e.cds_size:3d}  {churn}{tag}"
        )
    lines += [
        "",
        f"summary: {len(report.routed_epochs())}/{len(report.epochs)} epochs "
        f"routed, delivery {report.delivery_rate:.3f}, "
        f"mean stretch {report.mean('mean_stretch'):.3f}, "
        f"mean head churn {report.mean('head_churn'):.3f}",
    ]
    if report.degraded_epochs:
        recov = (
            ", ".join(str(t) for t in report.recovery_times)
            if report.recovery_times
            else "none completed"
        )
        lines.append(
            f"degraded: {report.degraded_epochs} disconnected epochs served "
            f"component-locally; recovery times (epochs): {recov}"
        )
    if report.engine == "delta":
        lines.append(
            f"inherited: {report.rows_inherited} rows, "
            f"{report.balls_inherited} balls, "
            f"{report.paths_inherited} canonical paths; "
            f"{report.router_rebuilds_avoided} router rebuilds avoided"
        )
    return "\n".join(lines)
