"""The long-lived engine: a supervised, event-driven service loop.

:class:`ServiceEngine` holds one live network — the topology plus one
:class:`~repro.traffic.router.BatchRouter`, whose backbone, clustering
and shared path oracle are read-only views — and folds a stream of
:class:`~repro.service.events.ServiceEvent` through the maintenance step
the other driver loops share (:mod:`repro.maintenance.step`):

* ``join`` — :meth:`~repro.net.topology.Topology.with_node`-style
  unit-disk attachment (dead nodes excluded), admission through
  :func:`~repro.core.clustering.admit_nodes`.  A member join keeps the
  whole CDS stage (``dataclasses.replace`` of the backbone) and rebinds
  the live router in place via
  :meth:`~repro.traffic.router.BatchRouter.admit_member` (O(1), head
  layer kept verbatim, legs re-resolved on demand).  A declared
  arrival — or a member join whose attach links *bridge previously
  separate components* (an earlier arrival landed in a radio hole, a
  later one wires it back; detected from an incrementally maintained
  component labeling, O(attach) per join) — is an edge delta to
  :func:`~repro.maintenance.step.carry_delta` with nothing touched but
  the new node.
* ``leave`` — the §3.3 repair ladder with the
  :func:`~repro.maintenance.repair.degraded_repair` floor, the router
  carried across by :func:`~repro.maintenance.step.carry_repair`.
* ``move`` / ``link_down`` / ``link_up`` — unit-disk edge deltas through
  :meth:`~repro.net.graph.Graph.with_edge_delta`; when the cover
  survives, :func:`~repro.maintenance.step.carry_delta` rebuilds the
  backbone on carried paths.
* ``degrade`` — per-link loss overrides folded into the delivery model.
* ``flow`` — a uniform workload routed over the live backbone and
  (when loss is configured) pushed through lossy delivery with retries.

Both carries publish the router's inheritance counters as
``router.inherit.*``; ``carry_delta`` merges heads an arrival or an edge
addition pulled within ``k`` (``service.head_merges``).  The steady
state never re-runs the global clustering algorithm: only a guard trip,
a cover-breaking motion, or a backbone stage that fails even after the
merge falls back to :func:`~repro.maintenance.repair.rebuild_survivors`
on the current graph, and each is counted
(``service.rebuild_fallbacks``).  A cover-breaking motion is the
designed §3.3 fallback, not a fault, so it is counted on its own
(``service.cover_fallbacks``) and logs no incident.  Invariant guards
(:func:`~repro.service.guards.run_guards`) run after structural events;
a violation, like a backbone stage that fails even after the merge,
becomes a structured incident (``service.guard_trips``) plus that same
scoped rebuild, and the loop keeps serving.

Durability is write-ahead: each event is appended to the JSONL log
*before* it is applied, and every ``checkpoint_every`` events the full
JSON-serializable state (:meth:`ServiceEngine.state_dict`) is snapshot
atomically.  Replay determinism rests on two properties: (a) the only
RNG draws happen in ``flow`` handlers, in a fixed order, from one
checkpointed PCG64 stream; (b) every live backbone equals
``build_backbone`` of its clustering restricted to ``n_struct`` (the
node count at the last structural change) with the current clustering
spliced back in — which is exactly how :meth:`ServiceEngine.from_state`
reconstructs it.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Collection, Optional, Sequence, Union

import numpy as np

from ..core.clustering import Clustering, admit_nodes, khop_cluster
from ..core.pipeline import _LOCALIZED, BackboneResult, build_backbone
from ..errors import InvalidParameterError, ValidationError
from ..maintenance.repair import (
    clustering_still_valid,
    degraded_repair,
    rebuild_survivors,
)
from ..maintenance.step import carry_delta, carry_repair
from ..net.graph import Graph
from ..net.paths import PathOracle
from ..net.topology import Topology, random_topology
from ..obs import counter as obs_counter
from ..obs import span
from ..traffic.router import BatchRouter
from ..traffic.workloads import make_workload
from ..types import Edge, normalize_edge
from .checkpoint import append_event, write_checkpoint
from .events import ServiceEvent, seeded_schedule
from .guards import GuardIncident, run_guards

__all__ = [
    "ServiceConfig",
    "ServiceEngine",
    "ServiceReport",
    "run_service",
    "INCIDENT_LOG_NAME",
]

#: Structured incident records land here, next to the event log.
INCIDENT_LOG_NAME = "incidents.jsonl"

#: Event kinds that can change the graph/backbone (guards run after these).
_STRUCTURAL_KINDS = frozenset(("join", "leave", "move", "link_down", "link_up"))


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable knobs for one service run (recorded in every checkpoint).

    Attributes:
        n: initial node count (the seeded unit-disk deployment).
        degree: target average degree of the initial topology.
        k: cluster radius.
        algorithm: backbone algorithm; must be localized (the repair
            ladder's degraded floor and partition-tolerant rebuilds rule
            out G-MST).
        backend: distance-oracle backend pinned on every graph.
        seed: master seed — initial topology, event schedules, and the
            engine's runtime RNG stream all derive from it.
        base_loss: uniform per-hop loss under which flows are delivered
            (0 disables the lossy-delivery stage entirely).
        max_attempts: per-flow retry budget for lossy delivery.
        checkpoint_every: snapshot cadence in events (0 disables).
        guard_every: run invariant guards after every Nth structural
            event (0 disables; 1 = always).
        fsync: fsync each event-log append (power-loss durability; the
            kill -9 guarantee holds either way).
    """

    n: int = 100
    degree: float = 8.0
    k: int = 2
    algorithm: str = "NC-Mesh"
    backend: str = "lazy"
    seed: int = 7
    base_loss: float = 0.0
    max_attempts: int = 3
    checkpoint_every: int = 50
    guard_every: int = 1
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in _LOCALIZED:
            raise InvalidParameterError(
                f"the service needs a localized algorithm, got "
                f"{self.algorithm!r} (known: {sorted(_LOCALIZED)})"
            )
        if self.n < 2:
            raise InvalidParameterError(f"need n >= 2, got {self.n}")
        if self.k < 1:
            raise InvalidParameterError(f"need k >= 1, got {self.k}")
        if not 0.0 <= self.base_loss < 1.0:
            raise InvalidParameterError(
                f"base_loss must be in [0, 1), got {self.base_loss}"
            )

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable knob record (checkpoint ``knobs`` section)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "ServiceConfig":
        """Inverse of :meth:`to_record` (exact round-trip)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in rec.items() if k in fields})


@dataclass(frozen=True)
class ServiceReport:
    """Summary of a finished (or resumed-and-finished) service run."""

    events_applied: int
    final_n: int
    alive: int
    heads: int
    joins_admitted: int
    heads_declared: int
    repairs: int
    backbone_rebuilds: int
    rebuild_fallbacks: int
    cover_fallbacks: int
    guard_trips: int
    khop_reruns: int
    checkpoints: int
    flows_routed: int
    mean_delivered: float

    def render(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        lines = [
            f"events applied       {self.events_applied}",
            f"nodes (alive/total)  {self.alive}/{self.final_n}",
            f"clusterheads         {self.heads}",
            f"joins admitted       {self.joins_admitted}"
            f" (+{self.heads_declared} declared)",
            f"repairs              {self.repairs}",
            f"backbone rebuilds    {self.backbone_rebuilds}",
            f"rebuild fallbacks    {self.rebuild_fallbacks}"
            f" (guard trips {self.guard_trips})",
            f"cover fallbacks      {self.cover_fallbacks}",
            f"khop re-runs         {self.khop_reruns}",
            f"checkpoints          {self.checkpoints}",
            f"flows routed         {self.flows_routed}"
            f" (mean delivered {self.mean_delivered:.3f})",
        ]
        return "\n".join(lines)


def _initial_topology(config: ServiceConfig) -> Topology:
    """The seeded initial deployment (pure function of the config)."""
    topo = random_topology(config.n, degree=config.degree, seed=config.seed)
    topo.graph.use_distance_backend(config.backend)
    return topo


class ServiceEngine:
    """One live network under a supervised event loop.

    Build fresh from a :class:`ServiceConfig` (optionally with a
    durability ``directory``), or restore via :meth:`from_state` /
    :func:`~repro.service.recovery.recover`.  Feed events through
    :meth:`apply`; read the world back through ``graph``, ``router``
    and :meth:`report`.  ``router`` is the one live routing structure:
    ``backbone``, ``clustering`` and ``paths`` are read-only views of it.
    """

    def __init__(
        self,
        config: ServiceConfig,
        directory: Union[str, Path, None] = None,
        *,
        _defer: bool = False,
    ) -> None:
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.dead: set[int] = set()
        self.loss: dict[Edge, float] = {}
        self.cursor = 0
        self.history: list[dict[str, Any]] = []
        self.incidents: list[GuardIncident] = []
        self.counts: Counter[str] = Counter()
        #: Cached per-node component labels (None = recompute on demand).
        self._comp_labels: Optional[np.ndarray] = None
        self.rng = np.random.default_rng(config.seed)
        if _defer:  # from_state fills the live structures itself
            return
        self.topology = _initial_topology(config)
        g = self.topology.graph
        clustering = khop_cluster(g, config.k, engine="batched")
        paths = PathOracle(g)
        self.router = BatchRouter(
            build_backbone(clustering, config.algorithm, oracle=paths),
            oracle=paths,
        )
        self.n_struct = g.n

    # ----------------------------------------------------------------- #
    # views
    # ----------------------------------------------------------------- #

    @property
    def graph(self) -> Graph:
        """The live connectivity graph."""
        return self.topology.graph

    @property
    def backbone(self) -> BackboneResult:
        """The live backbone (the router's)."""
        return self.router.result

    @property
    def clustering(self) -> Clustering:
        """The live clustering (the backbone's)."""
        return self.router.result.clustering

    @property
    def paths(self) -> PathOracle:
        """The live canonical-path oracle (the router's)."""
        return self.router.path_oracle

    @property
    def alive(self) -> int:
        """Number of nodes not yet departed."""
        return self.graph.n - len(self.dead)

    # ----------------------------------------------------------------- #
    # the event loop
    # ----------------------------------------------------------------- #

    def apply(
        self, event: ServiceEvent, *, log: bool = True, checkpoint: bool = True
    ) -> None:
        """Fold one event into the live state (write-ahead when durable).

        The event is re-stamped with the engine's cursor, appended to the
        event log *before* any state changes (``log=False`` during
        replay — the log already holds it), dispatched, guarded, and
        possibly checkpointed.  Recoverable trouble (a guard trip, a
        cover-breaking motion) degrades to a scoped rebuild; it never
        raises out of here.
        """
        event = event.stamped(self.cursor)
        if log and self.directory is not None:
            append_event(self.directory, event, fsync=self.config.fsync)
        with span("service.event", kind=event.kind, seq=event.seq):
            handler = getattr(self, f"_handle_{event.kind}")
            handler(event)
        self.cursor += 1
        self.counts["events"] += 1
        obs_counter("service.events_applied").add()
        if event.kind in _STRUCTURAL_KINDS:
            self.counts["structural"] += 1
            every = self.config.guard_every
            if every > 0 and self.counts["structural"] % every == 0:
                self._run_guards(event)
        every = self.config.checkpoint_every
        if (
            checkpoint
            and self.directory is not None
            and every > 0
            and self.cursor % every == 0
        ):
            self.checkpoint()

    def apply_all(
        self, events: Sequence[ServiceEvent], *, log: bool = True
    ) -> None:
        """Apply a batch in order (the demo/bench driver)."""
        for ev in events:
            self.apply(ev, log=log)

    # ----------------------------------------------------------------- #
    # handlers
    # ----------------------------------------------------------------- #

    def _handle_join(self, event: ServiceEvent) -> None:
        assert event.position is not None  # ServiceEvent validated
        g = self.graph
        x = g.n
        pos = np.asarray(event.position, dtype=np.float64).reshape(2)
        # Same float expression as unit_disk_edges / Topology.with_node,
        # minus departed nodes: an arrival never wires to a dead radio.
        diff = self.topology.positions - pos
        within = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        within = within <= self.topology.radius
        attach = [
            (int(u), x)
            for u in np.flatnonzero(within)
            if int(u) not in self.dead
        ]
        labels = self._component_labels()
        attach_roots = {int(labels[u]) for u, _ in attach}
        # Oracle caches are deliberately dropped: carrying them costs an
        # O(cache) relax at every arrival, while the next flow batch
        # rebuilds exactly the rows it needs in one sweep.
        g2 = g.with_nodes(1, attach, inherit_oracles=False)
        self.topology = replace(
            self.topology,
            graph=g2,
            positions=np.concatenate([self.topology.positions, pos[None, :]]),
        )
        self._extend_component_labels(labels, attach_roots)
        c2 = admit_nodes(self.clustering, g2)
        is_member = x not in set(c2.heads)
        if is_member and len(attach_roots) <= 1:
            # Member join: the CDS stage is untouched, so the live router
            # rebinds in place and keeps the whole head-routing layer
            # verbatim — O(1) where copy-and-verify inheritance would pay
            # O(cache) at every one of thousands of arrivals.  The leg
            # oracle starts fresh: legs re-resolve canonically on demand.
            self.router.admit_member(
                dataclasses.replace(self.backbone, clustering=c2),
                PathOracle(g2),
            )
            self._count("joins_admitted")
            return
        # Declared arrival (the head set changed) — or a member join whose
        # attach links bridge previously separate components, where the
        # head graph needs virtual links across the bridge that reusing
        # the old link set cannot supply.  Either way the backbone stage
        # rebuilds through the maintenance step, an arrival being an
        # edge delta with nothing touched but the new node.
        if not self._carry_delta(c2, (), event):
            return
        if is_member:
            self._count("joins_admitted")
            self._count("component_bridges")
        else:
            self._count("heads_declared")

    def _handle_leave(self, event: ServiceEvent) -> None:
        x = event.node
        assert x is not None  # ServiceEvent validated
        if not (0 <= x < self.graph.n) or x in self.dead:
            self.counts["skipped"] += 1  # already gone: idempotent no-op
            return
        self.dead.add(x)
        try:
            outcome = degraded_repair(self.backbone, x)
        except ValidationError as exc:
            # The ladder raised before handing back its post-departure
            # graph: cut the node's links here, or the fallback would
            # re-elect it and route members through a dead head.
            self._set_graph(self.graph.without_nodes([x]))
            self._fall_back(event, "backbone", str(exc))
            return
        self.counts["repairs"] += 1
        self.counts[f"repair.{outcome.action}"] += 1
        if outcome.action == "degraded":
            self.counts["khop_reruns"] += 1
        self.router, _ = carry_repair(self.router, outcome)
        self._set_graph(self.clustering.graph)
        self.n_struct = self.graph.n

    def _handle_move(self, event: ServiceEvent) -> None:
        x = event.node
        assert x is not None and event.position is not None
        if not (0 <= x < self.graph.n) or x in self.dead:
            self.counts["skipped"] += 1
            return
        pos = np.asarray(event.position, dtype=np.float64).reshape(2)
        positions2 = self.topology.positions.copy()
        positions2[x] = pos
        diff = positions2 - pos
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        within = dist <= self.topology.radius
        desired = {
            normalize_edge(x, int(u))
            for u in np.flatnonzero(within)
            if int(u) != x and int(u) not in self.dead
        }
        current = {normalize_edge(x, v) for v in self.graph.neighbors(x)}
        added = desired - current
        removed = current - desired
        self.topology = replace(self.topology, positions=positions2)
        self._apply_edge_delta(added, removed, event)

    def _handle_link_down(self, event: ServiceEvent) -> None:
        removed = self._present_edges(event.edges, present=True)
        self._apply_edge_delta(set(), removed, event)

    def _handle_link_up(self, event: ServiceEvent) -> None:
        added = self._present_edges(event.edges, present=False)
        self._apply_edge_delta(added, set(), event)

    def _handle_degrade(self, event: ServiceEvent) -> None:
        for e in event.edges:
            if event.loss > 0.0:
                self.loss[e] = event.loss
            else:
                self.loss.pop(e, None)
        self.counts["degrades"] += 1

    def _handle_flow(self, event: ServiceEvent) -> None:
        g = self.graph
        # Two draws per flow event, always, in this order — the stream
        # position is part of the replay contract.
        wl_seed = int(self.rng.integers(0, 2**31 - 1))
        dl_seed = int(self.rng.integers(0, 2**31 - 1))
        workload = make_workload("uniform", g.n, event.flows, seed=wl_seed)
        labels = self._component_labels()
        ok = labels[workload.sources] == labels[workload.targets]
        if self.dead:
            alive_mask = np.ones(g.n, dtype=bool)
            alive_mask[sorted(self.dead)] = False
            ok &= alive_mask[workload.sources]
            ok &= alive_mask[workload.targets]
        sub = workload.subset(ok)
        delivered = 1.0
        walks_crc = 0
        if sub.num_flows:
            routed = self.router.route_flows(sub, with_shortest=False)
            walks_crc = zlib.crc32(repr(routed.walks).encode())
            if self.loss or self.config.base_loss > 0.0:
                # Runtime import: faults.delivery imports traffic.router
                # at module level, so the service pulls it lazily too.
                from ..faults.delivery import LossModel, deliver

                model = LossModel.from_overrides(
                    g.n, dict(self.loss), base_loss=self.config.base_loss
                )
                delivery = deliver(
                    routed,
                    model,
                    seed=dl_seed,
                    max_attempts=self.config.max_attempts,
                )
                delivered = routed.with_delivery(delivery).delivered_fraction()
        self.history.append(
            {
                "seq": self.cursor,
                "flows": int(sub.num_flows),
                "delivered": float(delivered),
                "walks_crc": int(walks_crc),
            }
        )
        self._count("flows_routed", int(sub.num_flows))

    # ----------------------------------------------------------------- #
    # structural helpers
    # ----------------------------------------------------------------- #

    def _component_labels(self) -> np.ndarray:
        """Per-node connected-component labels of the live graph, cached.

        Joins maintain the cache incrementally (see
        :meth:`_extend_component_labels`); edge-removing events drop it
        and the next reader recomputes.  Only the *partition* is
        meaningful — label values may differ between an incrementally
        maintained cache and a fresh recompute, and nothing observable
        (flow filtering, bridge detection) depends on the values, which
        keeps replay deterministic.
        """
        labels = self._comp_labels
        if labels is None or len(labels) != self.graph.n:
            labels = self._comp_labels = self.graph.component_labels()
        return labels

    def _extend_component_labels(
        self, labels: np.ndarray, attach_roots: set[int]
    ) -> None:
        """Fold one arrival into the pre-join ``labels`` cache."""
        if attach_roots:
            new = min(attach_roots)
        else:  # isolated arrival: its own fresh component
            new = int(labels.max()) + 1 if labels.size else 0
        labels2 = np.append(labels, new)
        if len(attach_roots) > 1:  # the arrival merged components
            labels2[np.isin(labels2, list(attach_roots - {new}))] = new
        self._comp_labels = labels2

    def _present_edges(
        self, edges: tuple[Edge, ...], *, present: bool
    ) -> set[Edge]:
        """Filter a link event's edges to applicable ones."""
        g = self.graph
        out: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < g.n and 0 <= v < g.n):
                continue
            if u in self.dead or v in self.dead:
                continue
            if g.has_edge(u, v) == present:
                out.add(normalize_edge(u, v))
        return out

    def _apply_edge_delta(
        self, added: set[Edge], removed: set[Edge], event: ServiceEvent
    ) -> None:
        """Fold an edge delta through the incremental backbone path."""
        g2 = self.graph.with_edge_delta(added, removed)
        if g2 is self.graph:
            self.counts["skipped"] += 1
            return
        self._set_graph(g2)
        c2 = dataclasses.replace(self.clustering, graph=g2)
        if not clustering_still_valid(c2, g2, exclude=self.dead):
            # The designed fallback when motion strands a member beyond
            # k of its head: counted, not logged as an incident.
            self._count("cover_fallbacks")
            self._scoped_rebuild(event)
            return
        self._carry_delta(c2, {u for e in added | removed for u in e}, event)

    def _set_graph(self, graph: Graph) -> None:
        """Install a structurally changed graph; component labels reset."""
        self.topology = replace(self.topology, graph=graph)
        self._comp_labels = None

    def _count(self, name: str, n: int = 1) -> None:
        """Bump one run counter and its ``service.*`` metric."""
        self.counts[name] += n
        obs_counter(f"service.{name}").add(n)

    def _carry_delta(
        self,
        clustering: Clustering,
        touched: Collection[int],
        event: ServiceEvent,
    ) -> bool:
        """Install the maintenance step's router for ``clustering``.

        :func:`~repro.maintenance.step.carry_delta` rebuilds the backbone
        stage on carried paths, merging heads the change pulled within
        ``k``; when even the merged clustering fails, the incident is
        logged and the scoped rebuild installs the state instead
        (returns False).
        """
        try:
            router, _ = carry_delta(self.router, clustering, touched)
        except ValidationError as exc:
            self._fall_back(event, "backbone", str(exc))
            return False
        if router.result.clustering is not clustering:
            self._count("head_merges")
        self.router = router
        self.n_struct = self.graph.n
        self._count("backbone_rebuilds")
        return True

    def _fall_back(self, event: ServiceEvent, guard: str, message: str) -> None:
        """Log one incident, then fall back to the scoped rebuild."""
        self._incident(GuardIncident(guard, message, event.seq, event.kind))
        self._scoped_rebuild(event)

    def _scoped_rebuild(self, event: ServiceEvent) -> None:
        """The guard/fallback floor: recluster survivors, keep serving."""
        g = self.graph
        with span("service.rebuild_fallback", n=g.n, seq=event.seq):
            paths = PathOracle(g)
            backbone = rebuild_survivors(
                g,
                self.config.k,
                self.config.algorithm,
                dead=self.dead,
                priority=self.clustering.priority_name,
                membership=self.clustering.membership_name,
                oracle=paths,
            )
            self.router = BatchRouter(backbone, oracle=paths)
            self.n_struct = g.n
        self._count("rebuild_fallbacks")
        self.counts["khop_reruns"] += 1

    def _run_guards(self, event: ServiceEvent) -> None:
        incidents = run_guards(
            self.graph,
            self.clustering,
            self.backbone,
            self.dead,
            seq=event.seq,
            kind=event.kind,
        )
        if not incidents:
            return
        for inc in incidents:
            self._incident(inc)
        if incidents[0].guard == "csr":
            # Re-elect on arrays rebuilt from the edge array, the record
            # the fingerprint and checkpoints serialize, not on the
            # corrupt CSR (fresh oracles: cached rows came from it too).
            g = self.graph
            self._set_graph(
                Graph(g.n, g.edge_array).use_distance_backend(self.config.backend)
            )
        self._scoped_rebuild(event)

    def _incident(self, incident: GuardIncident) -> None:
        self.incidents.append(incident)
        self._count("guard_trips")
        obs_counter(f"service.guard_trips.{incident.guard}").add()
        if self.directory is not None:
            path = self.directory / INCIDENT_LOG_NAME
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(incident.to_record(), sort_keys=True) + "\n")

    # ----------------------------------------------------------------- #
    # durability
    # ----------------------------------------------------------------- #

    def state_dict(self) -> dict[str, Any]:
        """The full JSON-serializable engine state (checkpoint payload)."""
        g = self.graph
        return {
            "n": g.n,
            "edges": g.edge_array.tolist(),
            "positions": [
                [float(a), float(b)] for a, b in self.topology.positions
            ],
            "radius": float(self.topology.radius),
            "area": [float(self.topology.area[0]), float(self.topology.area[1])],
            "attempts": int(self.topology.attempts),
            "n_struct": int(self.n_struct),
            "dead": sorted(self.dead),
            "head_of": [int(h) for h in self.clustering.head_of],
            "heads": [int(h) for h in self.clustering.heads],
            "rounds": int(self.clustering.rounds),
            "priority": self.clustering.priority_name,
            "membership": self.clustering.membership_name,
            "loss": [
                [int(u), int(v), float(p)]
                for (u, v), p in sorted(self.loss.items())
            ],
            "rng": self.rng.bit_generator.state,
            "cursor": int(self.cursor),
            "history": list(self.history),
            "incidents": [inc.to_record() for inc in self.incidents],
            "counts": dict(self.counts),
        }

    def checkpoint(self) -> Path:
        """Write the atomic snapshot for the current cursor."""
        if self.directory is None:
            raise InvalidParameterError(
                "checkpointing needs a service directory"
            )
        with span("service.checkpoint", seq=self.cursor):
            path = write_checkpoint(
                self.directory,
                self.cursor,
                self.state_dict(),
                knobs=self.config.to_record(),
            )
        nbytes = path.stat().st_size
        self._count("checkpoints")
        obs_counter("service.checkpoint_bytes").add(int(nbytes))
        return path

    @classmethod
    def from_state(
        cls,
        config: ServiceConfig,
        state: dict[str, Any],
        directory: Union[str, Path, None] = None,
    ) -> "ServiceEngine":
        """Reconstruct a live engine from a checkpoint's ``state`` dict.

        The backbone is rebuilt as ``build_backbone`` of the clustering
        restricted to ``n_struct`` (the node count at the last structural
        change) with the full clustering spliced back in — exactly the
        state the live engine carried, because every node admitted past
        ``n_struct`` was a member join that left the CDS stage untouched.
        """
        engine = cls(config, directory, _defer=True)
        n = int(state["n"])
        g = Graph(n, state["edges"])
        g.use_distance_backend(config.backend)
        positions = np.asarray(state["positions"], dtype=np.float64)
        engine.topology = Topology(
            graph=g,
            positions=positions,
            radius=float(state["radius"]),
            area=(float(state["area"][0]), float(state["area"][1])),
            seed=config.seed,
            attempts=int(state["attempts"]),
        )
        clustering = Clustering(
            graph=g,
            k=config.k,
            head_of=tuple(int(h) for h in state["head_of"]),
            heads=tuple(int(h) for h in state["heads"]),
            rounds=int(state["rounds"]),
            priority_name=state["priority"],
            membership_name=state["membership"],
        )
        n_struct = int(state["n_struct"])
        engine.n_struct = n_struct
        if n_struct == n:
            struct_clustering = clustering
            struct_graph = g
        else:
            edges = g.edge_array
            struct_graph = Graph(n_struct, edges[edges[:, 1] < n_struct])
            struct_graph.use_distance_backend(config.backend)
            struct_clustering = Clustering(
                graph=struct_graph,
                k=config.k,
                head_of=clustering.head_of[:n_struct],
                heads=tuple(h for h in clustering.heads if h < n_struct),
                rounds=clustering.rounds,
                priority_name=clustering.priority_name,
                membership_name=clustering.membership_name,
            )
        backbone = build_backbone(struct_clustering, config.algorithm)
        if struct_clustering is not clustering:
            backbone = dataclasses.replace(backbone, clustering=clustering)
        engine.router = BatchRouter(backbone, oracle=PathOracle(g))
        engine.dead = {int(u) for u in state["dead"]}
        engine.loss = {
            normalize_edge(int(u), int(v)): float(p)
            for u, v, p in state["loss"]
        }
        engine.rng = np.random.default_rng(config.seed)
        engine.rng.bit_generator.state = state["rng"]
        engine.cursor = int(state["cursor"])
        engine.history = list(state["history"])
        engine.incidents = [
            GuardIncident(
                guard=rec["guard"],
                message=rec["message"],
                seq=int(rec["seq"]),
                kind=rec["kind"],
            )
            for rec in state.get("incidents", [])
        ]
        engine.counts = Counter(
            {str(k): int(v) for k, v in state.get("counts", {}).items()}
        )
        return engine

    # ----------------------------------------------------------------- #
    # identity & reporting
    # ----------------------------------------------------------------- #

    def fingerprint(self) -> dict[str, Any]:
        """A compact identity of the observable state.

        Two engines that processed the same event prefix — whether
        straight through or via kill/restore/replay — must produce equal
        fingerprints: same graph, cover, backbone, loss map, traffic
        history (walk digests included), and RNG stream position.
        """
        g = self.graph
        return {
            "cursor": self.cursor,
            "n": g.n,
            "n_struct": self.n_struct,
            "edges_crc": zlib.crc32(repr(g.edges).encode()),
            "positions_crc": zlib.crc32(
                repr(self.topology.positions.tolist()).encode()
            ),
            "head_of": self.clustering.head_of,
            "heads": self.clustering.heads,
            "gateways": tuple(sorted(self.backbone.gateways)),
            "links_crc": zlib.crc32(
                repr(sorted(self.backbone.selected_links)).encode()
            ),
            "dead": tuple(sorted(self.dead)),
            "loss": tuple(sorted(self.loss.items())),
            "rng": repr(self.rng.bit_generator.state),
            "history": tuple(
                tuple(sorted(h.items())) for h in self.history
            ),
        }

    def report(self) -> ServiceReport:
        """Summarize what the loop has done so far."""
        delivered = [h["delivered"] for h in self.history if h["flows"]]
        return ServiceReport(
            events_applied=self.cursor,
            final_n=self.graph.n,
            alive=self.alive,
            heads=len(self.clustering.heads),
            joins_admitted=self.counts["joins_admitted"],
            heads_declared=self.counts["heads_declared"],
            repairs=self.counts["repairs"],
            backbone_rebuilds=self.counts["backbone_rebuilds"],
            rebuild_fallbacks=self.counts["rebuild_fallbacks"],
            cover_fallbacks=self.counts["cover_fallbacks"],
            guard_trips=self.counts["guard_trips"],
            khop_reruns=self.counts["khop_reruns"],
            checkpoints=self.counts["checkpoints"],
            flows_routed=self.counts["flows_routed"],
            mean_delivered=(
                float(np.mean(delivered)) if delivered else 1.0
            ),
        )


def run_service(
    config: ServiceConfig,
    *,
    events: int,
    directory: Union[str, Path, None] = None,
    weights: Optional[dict[str, float]] = None,
    flows_per_batch: int = 50,
    resume: bool = False,
) -> tuple[ServiceEngine, ServiceReport]:
    """Drive one seeded service run end to end (CLI / bench / CI entry).

    Generates the deterministic schedule from the config's seed, builds
    (or, with ``resume=True`` on a directory holding durable state,
    recovers) the engine, and applies the remaining events.  The
    schedule is a pure function of the config, so a resumed run
    continues exactly where the killed one stopped.
    """
    schedule = seeded_schedule(
        _initial_topology(config),
        events=events,
        seed=config.seed,
        weights=weights,
        flows_per_batch=flows_per_batch,
    )
    engine: Optional[ServiceEngine] = None
    if resume and directory is not None:
        from .recovery import recover

        engine = recover(directory, config=config)
    if engine is None:
        engine = ServiceEngine(config, directory)
    engine.apply_all(schedule[engine.cursor :])
    return engine, engine.report()
