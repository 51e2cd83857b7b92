"""Seeded chaos harness: randomized fault campaigns with invariant checks.

The fault plans (:mod:`repro.faults.plan`) compile to the engine's
incremental machinery (``without_nodes``, ``with_edge_delta``), the
delivery engine (:mod:`repro.faults.delivery`) stacks vectorized loss
draws on top, and the repair ladder promises component-local floors —
all of which is exactly the kind of code where a subtle cache-coherence
bug survives unit tests and dies only under *composition*.  This module
hunts those bugs the way the incremental oracles are tested: run a
seeded random campaign and, after **every** event batch, re-derive the
ground truth from scratch and compare.

Invariants checked per batch:

1. **edge-set / CSR coherence** — the realized graph's edge set equals
   the fault state's independently book-kept
   :meth:`~repro.faults.plan.FaultState.expected_edges`, and the CSR
   adjacency arrays round-trip to the same normalized edge set
   (symmetry: every arc has its reverse) — the service's
   :func:`~repro.service.guards.check_csr_symmetry` guard.
2. **component-local backbone cover** — a backbone built cold on the
   survivors (:func:`~repro.maintenance.repair.rebuild_survivors`)
   passes the per-component verification battery the service guards
   and the degraded repair floor share
   (:func:`~repro.maintenance.repair._verify_excluding`): per-component
   CDS connectivity, k-hop domination, gateways are members, links
   alive.
3. **inherited-vs-fresh walk identity** — a router inheriting the
   previous batch's caches across the delta routes a sampled flow
   subset identically to a cold router on the same backbone.
4. **flow conservation under loss** — one lossy delivery over the
   survivors satisfies the exact loss ledger: transmissions minus
   receptions equals one demand-weighted loss per failed attempt.

On the first violation the report carries a minimal repro line
(``seed`` + the 1-based index of the last applied event), so a failure
reproduces with ``repro-khop chaos --seed S --events I``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.pipeline import _LOCALIZED
from ..errors import InvalidParameterError, ValidationError
from ..maintenance.repair import (
    _surviving_components,
    _verify_excluding,
    rebuild_survivors,
)
from ..net.topology import random_topology
from ..obs import span
from ..service.guards import check_csr_symmetry
from ..traffic.router import BatchRouter
from ..traffic.workloads import make_workload
from .delivery import LossModel, deliver
from .plan import FaultState, random_campaign

__all__ = ["EpochRecord", "ChaosReport", "run_chaos", "render_chaos"]


@dataclass(frozen=True)
class EpochRecord:
    """One event batch's post-state and check outcome.

    Attributes:
        epoch: the plan epoch the batch belongs to.
        events_applied: cumulative events applied up to and including
            this batch (the repro index on violation).
        alive / edges: survivor count and realized edge count.
        components: surviving connected components (dead singletons
            excluded).
        flows_routable: flows whose endpoints share a component.
        delivered: demand-weighted delivered fraction of the batch's
            lossy delivery (1.0 when nothing was routable).
        checks: invariant checks run for this batch.
    """

    epoch: int
    events_applied: int
    alive: int
    edges: int
    components: int
    flows_routable: int
    delivered: float
    checks: int


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign.

    Attributes:
        seed / events: campaign identity (the repro coordinates).
        events_applied: events actually applied (the plan may emit a few
            more records than requested — recovery events ride along).
        epochs: per-batch records, in order.
        violations: human-readable violation lines, each starting with
            the minimal repro (``seed=S events=I``); empty on success.
    """

    seed: int
    events: int
    events_applied: int = 0
    epochs: list[EpochRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held through the whole campaign."""
        return not self.violations

    @property
    def checks_run(self) -> int:
        """Total invariant checks across all batches."""
        return sum(e.checks for e in self.epochs)


def run_chaos(
    *,
    seed: int,
    events: int,
    n: int = 120,
    degree: float = 8.0,
    k: int = 2,
    algorithm: str = "AC-LMST",
    flows: int = 200,
    sample: int = 16,
    base_loss: float = 0.05,
    max_attempts: int = 3,
    join_weight: float = 0.0,
    stop_on_violation: bool = True,
    trace_path: str | None = None,
) -> ChaosReport:
    """Run one seeded chaos campaign and check invariants per batch.

    Args:
        seed: campaign seed — topology, plan, workload and loss draws
            all derive from it, so (seed, events, join_weight) is a
            full repro.
        events: fault events to request from
            :func:`~repro.faults.plan.random_campaign`.
        join_weight: campaign weight of node-arrival (``join``) events;
            0 (the default) reproduces the pre-growth campaigns
            bit-for-bit, > 0 interleaves grow+shrink+rewire.  Arrivals
            resize the per-batch workload/loss model to the current
            node count.  Every batch — growth, crashes and link changes
            mixed — is one edge delta to the inherited-vs-fresh walk
            check.
        n / degree: chaos topology size and target mean degree.
        k: cluster radius.
        algorithm: backbone pipeline (localized only — the campaign
            partitions the graph on purpose).
        flows: workload size for the routing/delivery checks.
        sample: flows compared for inherited-vs-fresh walk identity.
        base_loss: loss floor applied to every link on top of the
            campaign's per-link degradations.
        max_attempts: retry budget for the per-batch lossy delivery.
        stop_on_violation: stop at the first violated invariant
            (the default — the repro line points at it); False keeps
            going and collects every violation.
        trace_path: when the run is being traced (``--trace``), the
            trace file's path; violation repro lines then carry a
            matching ``--trace`` flag so the repro run captures the
            same observability artifacts.
    """
    if events < 1:
        raise InvalidParameterError(f"events must be >= 1, got {events}")
    if algorithm not in _LOCALIZED:
        raise InvalidParameterError(
            f"chaos needs a localized algorithm "
            f"(one of {sorted(_LOCALIZED)}), got {algorithm!r}"
        )
    if not 0.0 <= join_weight < 1.0:
        raise InvalidParameterError(
            f"join_weight must be in [0, 1), got {join_weight}"
        )
    topology = random_topology(n, degree=degree, seed=seed)
    plan = random_campaign(
        topology,
        events=events,
        epochs=max(2, events // 4),
        seed=seed,
        weights={"join": join_weight} if join_weight else None,
    )
    workload = make_workload("uniform", n, flows, seed=seed)
    state = FaultState(topology.graph)
    report = ChaosReport(seed=seed, events=len(plan))

    prev_router: Optional[BatchRouter] = None
    prev_edges = set(topology.graph.edges)

    def violate(msg: str) -> None:
        trace_arg = f" --trace {trace_path}" if trace_path else ""
        join_arg = f" --join-weight {join_weight}" if join_weight else ""
        report.violations.append(
            f"seed={seed} events={report.events_applied}: {msg} "
            f"(repro: repro-khop chaos --seed {seed} "
            f"--events {report.events_applied}{join_arg}{trace_arg})"
        )

    with span("chaos", seed=seed, events=events):
        for epoch, batch in plan.batches():
            if not batch:
                continue
            with span("batch", epoch=epoch, events=len(batch)):
                state.apply_batch(batch)
                report.events_applied += len(batch)
                graph = state.graph
                dead = set(state.dead)
                checks = 0
                if workload.n != graph.n:
                    # Arrivals grew the population: regenerate the
                    # (seed-pure) workload at the current node count so
                    # new nodes source and sink traffic too.
                    workload = make_workload(
                        "uniform", graph.n, flows, seed=seed
                    )

                # 1 — edge-set coherence + CSR symmetry.
                realized = set(graph.edges)
                expected = state.expected_edges()
                checks += 1
                if realized != expected:
                    missing = sorted(expected - realized)[:3]
                    extra = sorted(realized - expected)[:3]
                    violate(
                        f"edge-set mismatch after batch at epoch {epoch}: "
                        f"missing={missing} extra={extra}"
                    )
                checks += 1
                csr_problem = check_csr_symmetry(graph)
                if csr_problem is not None:
                    violate(f"{csr_problem} at epoch {epoch}")

                # 2 — component-local backbone passes the degraded battery.
                components = _surviving_components(graph, dead)
                checks += 1
                try:
                    backbone = rebuild_survivors(graph, k, algorithm, dead=dead)
                    _verify_excluding(backbone, dead, per_component=True)
                except ValidationError as exc:
                    violate(f"degraded backbone battery failed at epoch {epoch}: {exc}")
                    if stop_on_violation:
                        break
                    prev_router = None
                    prev_edges = realized
                    continue

                # Routable flows: endpoints alive and sharing a component.
                labels = graph.component_labels()
                sub = workload.subset(
                    labels[workload.sources] == labels[workload.targets]
                )
                router = BatchRouter(backbone)

                # 3 — inherited caches route identically to a cold router.
                # Every batch — crashes, arrivals, link changes, or any
                # mix — is one edge delta to the inheritance certificate.
                inherited: Optional[BatchRouter] = None
                if prev_router is not None and sub.num_flows:
                    touched = {x for e in prev_edges ^ realized for x in e}
                    inherited = BatchRouter(backbone)
                    inherited.inherit_edge_delta(prev_router, touched)
                if inherited is not None:
                    probe = sub.subset(slice(min(sample, sub.num_flows)))
                    checks += 1
                    cold = router.route_flows(probe, with_shortest=False)
                    warm = inherited.route_flows(probe, with_shortest=False)
                    if cold.walks != warm.walks:
                        diverged = next(
                            i
                            for i, (a, b) in enumerate(zip(cold.walks, warm.walks))
                            if a != b
                        )
                        violate(
                            f"inherited router diverged from cold router at epoch "
                            f"{epoch}, flow {diverged}: "
                            f"{warm.walks[diverged]} != {cold.walks[diverged]}"
                        )

                # 4 — lossy delivery satisfies the exact loss ledger.
                delivered = 1.0
                if sub.num_flows:
                    loss = LossModel.from_overrides(
                        graph.n, dict(state.loss), base_loss=base_loss
                    )
                    routed = router.route_flows(sub, with_shortest=False)
                    delivery = deliver(
                        routed,
                        loss,
                        seed=seed + report.events_applied,
                        max_attempts=max_attempts,
                    )
                    delivered = float(delivery.delivered_fraction)
                    dem = sub.demands.astype(np.int64)
                    success = delivery.outcome == 0  # FlowOutcome.DELIVERED
                    expected_lost = int(
                        (dem * delivery.attempts).sum() - dem[success].sum()
                    )
                    checks += 1
                    if delivery.lost_packets != expected_lost:
                        violate(
                            f"loss ledger broken at epoch {epoch}: tx-rx = "
                            f"{delivery.lost_packets}, failed attempts account "
                            f"for {expected_lost}"
                        )
                    checks += 1
                    if delivery.delivered_packets > delivery.offered_packets:
                        violate(
                            f"delivered more packets than offered at epoch {epoch}"
                        )

                report.epochs.append(
                    EpochRecord(
                        epoch=epoch,
                        events_applied=report.events_applied,
                        alive=graph.n - len(dead),
                        edges=len(realized),
                        components=len(components),
                        flows_routable=int(sub.num_flows),
                        delivered=delivered,
                        checks=checks,
                    )
                )
                prev_router = router
                prev_edges = realized
                if report.violations and stop_on_violation:
                    break
    return report


def render_chaos(report: ChaosReport) -> str:
    """Human-readable campaign summary (and repro lines on failure)."""
    lines = [
        f"chaos campaign: seed={report.seed}, "
        f"{report.events_applied} events applied over "
        f"{len(report.epochs)} batches, {report.checks_run} invariant "
        f"checks",
    ]
    if report.epochs:
        last = report.epochs[-1]
        mean_delivered = float(
            np.mean([e.delivered for e in report.epochs])
        )
        lines.append(
            f"final state: {last.alive} alive, {last.edges} edges, "
            f"{last.components} components, "
            f"mean delivered {mean_delivered:.3f}"
        )
    if report.ok:
        lines.append("all invariants held")
    else:
        lines.append(f"{len(report.violations)} VIOLATION(S):")
        lines.extend(f"  {v}" for v in report.violations)
    return "\n".join(lines)
