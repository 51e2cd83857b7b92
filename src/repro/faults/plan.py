"""Composable, RNG-disciplined fault schedules.

A *fault plan* is a deterministic, seed-reproducible sequence of
:class:`FaultEvent` records grouped into epochs.  Builders exist for the
four fault families the robustness experiments need:

* :func:`crash_plan` — permanent node failures (§3.3 "nodes that die");
* :func:`flap_plan` — transient link outages that come back after a
  configurable number of epochs;
* :func:`degrade_plan` — per-link loss-rate degradation feeding the
  lossy delivery model (:mod:`repro.faults.delivery`);
* :func:`jam_plan` — correlated spatial outages: a jamming disk placed
  in the deployment area kills every link whose segment crosses it.

Plans are values: :func:`compose` merges any number of them into one
epoch-ordered schedule, and identical seeds always yield identical event
streams (the determinism tests assert this bit-for-bit).

Compilation happens in :class:`FaultState`, which folds an event batch
into the engine's existing incremental machinery — crashes through
:meth:`~repro.net.graph.Graph.without_nodes`, arrivals through
:meth:`~repro.net.graph.Graph.with_nodes` and all link changes through
one :meth:`~repro.net.graph.Graph.with_edge_delta` call, each an edge
delta to the caches — so every cache-inheritance layer is exercised
under fire.  Overlapping outages
(two jams covering the same link, a flap inside a jam) are reference
counted: a link comes back only when *every* outage holding it down has
ended, and never while an endpoint is dead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..net.graph import Graph
from ..net.topology import Topology
from ..types import Edge, normalize_edge

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "EVENT_KINDS",
    "crash_plan",
    "flap_plan",
    "degrade_plan",
    "jam_plan",
    "compose",
    "random_campaign",
]

#: Recognized event kinds, in no particular order.
EVENT_KINDS: tuple[str, ...] = (
    "crash",
    "join",
    "link_down",
    "link_up",
    "degrade",
    "jam",
    "jam_end",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fully compiled at plan-build time.

    Spatial events (``jam``/``jam_end``) carry both their geometry
    (``center``/``radius``, for reporting) and the concrete ``edges``
    tuple the disk covers — compilation against node positions happens
    once in :func:`jam_plan`, so applying a plan never needs the
    topology again.

    Attributes:
        epoch: epoch index the event fires in (0-based).
        kind: one of :data:`EVENT_KINDS`.
        node: crashed node for ``crash`` events; the arriving node's
            planned id for ``join`` events (ids are assigned in plan
            order, so the compiler can check numbering).
        edges: affected links for link/jam/degrade events; for ``join``
            events the compiled unit-disk attach links (normalized).
        loss: new per-link loss probability for ``degrade`` events.
        center: jamming-disk center for ``jam``/``jam_end`` events; the
            arrival position for ``join`` events.
        radius: jamming-disk radius for ``jam``/``jam_end`` events.
    """

    epoch: int
    kind: str
    node: Optional[int] = None
    edges: tuple[Edge, ...] = ()
    loss: float = 0.0
    center: Optional[tuple[float, float]] = None
    radius: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise InvalidParameterError(f"unknown fault kind {self.kind!r}")
        if self.epoch < 0:
            raise InvalidParameterError(f"epoch must be >= 0, got {self.epoch}")
        if not 0.0 <= self.loss <= 1.0:
            raise InvalidParameterError(
                f"loss must be in [0, 1], got {self.loss}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An epoch-ordered schedule of :class:`FaultEvent` records.

    Attributes:
        events: events sorted by epoch (stable, so each builder's
            internal order is preserved within an epoch).
        epochs: number of epochs the plan spans; :meth:`batches` yields
            exactly this many (possibly empty) batches.
    """

    events: tuple[FaultEvent, ...]
    epochs: int

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise InvalidParameterError(
                f"epochs must be >= 0, got {self.epochs}"
            )
        for ev in self.events:
            if ev.epoch >= self.epochs:
                raise InvalidParameterError(
                    f"event at epoch {ev.epoch} outside plan of {self.epochs}"
                )
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.epoch))
        )

    def __len__(self) -> int:
        return len(self.events)

    def batches(self) -> Iterator[tuple[int, tuple[FaultEvent, ...]]]:
        """Yield ``(epoch, events_in_epoch)`` for every epoch in order."""
        i = 0
        for epoch in range(self.epochs):
            j = i
            while j < len(self.events) and self.events[j].epoch == epoch:
                j += 1
            yield epoch, self.events[i:j]
            i = j

    def shifted(self, by: int) -> "FaultPlan":
        """Copy of the plan with every event delayed by ``by`` epochs."""
        if by < 0:
            raise InvalidParameterError(f"shift must be >= 0, got {by}")
        return FaultPlan(
            tuple(replace(ev, epoch=ev.epoch + by) for ev in self.events),
            self.epochs + by,
        )


def compose(*plans: FaultPlan) -> FaultPlan:
    """Merge plans into one schedule spanning the longest plan's epochs.

    Events keep their absolute epochs; within an epoch, events from
    earlier arguments apply first (the merge is stable).
    """
    events: list[FaultEvent] = []
    for p in plans:
        events.extend(p.events)
    epochs = max((p.epochs for p in plans), default=0)
    return FaultPlan(tuple(events), epochs)


# --------------------------------------------------------------------- #
# seeded builders
# --------------------------------------------------------------------- #


def _spread_epochs(
    rng: np.random.Generator, count: int, epochs: int
) -> np.ndarray:
    """Draw ``count`` sorted epoch indices uniformly from ``[0, epochs)``."""
    if epochs <= 0:
        raise InvalidParameterError(f"epochs must be >= 1, got {epochs}")
    return np.sort(rng.integers(0, epochs, size=count))


def crash_plan(
    graph: Graph,
    *,
    count: int,
    epochs: int,
    seed: int,
) -> FaultPlan:
    """Permanent crashes of ``count`` distinct nodes spread over ``epochs``.

    Nodes are drawn without replacement from the whole graph, so one plan
    never crashes a node twice (composing independent plans may — the
    :class:`FaultState` compiler treats a repeat crash as a no-op).
    """
    if not 0 <= count <= graph.n:
        raise InvalidParameterError(
            f"crash count must be in [0, {graph.n}], got {count}"
        )
    rng = np.random.default_rng(seed)
    nodes = rng.choice(graph.n, size=count, replace=False)
    when = _spread_epochs(rng, count, epochs)
    events = tuple(
        FaultEvent(epoch=int(e), kind="crash", node=int(x))
        for e, x in zip(when, nodes)
    )
    return FaultPlan(events, epochs)


def _choose_edges(
    rng: np.random.Generator, graph: Graph, count: int, *, replace_: bool
) -> list[Edge]:
    if graph.m == 0:
        if count:
            raise InvalidParameterError("graph has no edges to fault")
        return []
    if not replace_ and count > graph.m:
        raise InvalidParameterError(
            f"cannot pick {count} distinct edges from {graph.m}"
        )
    idx = rng.choice(graph.m, size=count, replace=replace_)
    return [graph.edges[int(i)] for i in idx]


def flap_plan(
    graph: Graph,
    *,
    count: int,
    epochs: int,
    seed: int,
    down_for: int = 1,
) -> FaultPlan:
    """``count`` transient link outages, each lasting ``down_for`` epochs.

    Every flap emits a ``link_down`` event and, when it fits inside the
    plan, a matching ``link_up`` ``down_for`` epochs later; a flap whose
    recovery would land past the horizon simply never comes back.
    """
    if down_for < 1:
        raise InvalidParameterError(f"down_for must be >= 1, got {down_for}")
    rng = np.random.default_rng(seed)
    edges = _choose_edges(rng, graph, count, replace_=True)
    when = _spread_epochs(rng, count, epochs)
    events: list[FaultEvent] = []
    for e, edge in zip(when, edges):
        events.append(FaultEvent(epoch=int(e), kind="link_down", edges=(edge,)))
        up = int(e) + down_for
        if up < epochs:
            events.append(FaultEvent(epoch=up, kind="link_up", edges=(edge,)))
    return FaultPlan(tuple(events), epochs)


def degrade_plan(
    graph: Graph,
    *,
    count: int,
    epochs: int,
    seed: int,
    loss_range: tuple[float, float] = (0.05, 0.5),
) -> FaultPlan:
    """``count`` per-link loss-rate degradations with uniform random rates.

    Each event pins one link's loss probability to a draw from
    ``loss_range``; later degrades of the same link overwrite earlier
    ones (last writer wins, matching :class:`FaultState` semantics).
    """
    lo, hi = loss_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise InvalidParameterError(
            f"loss_range must satisfy 0 <= lo <= hi <= 1, got {loss_range}"
        )
    rng = np.random.default_rng(seed)
    edges = _choose_edges(rng, graph, count, replace_=True)
    when = _spread_epochs(rng, count, epochs)
    rates = rng.uniform(lo, hi, size=count)
    events = tuple(
        FaultEvent(epoch=int(e), kind="degrade", edges=(edge,), loss=float(r))
        for e, edge, r in zip(when, edges, rates)
    )
    return FaultPlan(events, epochs)


def edges_crossing_disk(
    topology: Topology, center: tuple[float, float], radius: float
) -> tuple[Edge, ...]:
    """Links whose segment passes within ``radius`` of ``center``.

    Vectorized point-to-segment distance over the whole edge list: a
    link is jammed when the closest point of its segment to the disk
    center lies inside the disk (covers both endpoint-in-disk and
    crossing-chord cases).
    """
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    g = topology.graph
    if g.m == 0:
        return ()
    e = np.asarray(g.edges, dtype=np.int64)
    p = topology.positions[e[:, 0]]
    q = topology.positions[e[:, 1]]
    c = np.asarray(center, dtype=np.float64)
    d = q - p
    dd = np.einsum("ij,ij->i", d, d)
    # Parameter of the closest point on each segment, clamped to [0, 1];
    # zero-length segments (coincident endpoints) fall back to t = 0.
    num = np.einsum("ij,ij->i", c[None, :] - p, d)
    t = np.where(dd > 0.0, num / np.where(dd > 0.0, dd, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = p + t[:, None] * d
    diff = closest - c[None, :]
    inside = np.einsum("ij,ij->i", diff, diff) <= radius * radius
    return tuple(
        normalize_edge(int(u), int(v)) for u, v in e[inside].tolist()
    )


def jam_plan(
    topology: Topology,
    *,
    count: int,
    epochs: int,
    seed: int,
    radius: Optional[float] = None,
    duration: int = 1,
) -> FaultPlan:
    """``count`` jamming disks at uniform random positions in the area.

    Every disk kills all links crossing it (compiled to a concrete edge
    tuple here, against the topology's positions) for ``duration``
    epochs.  Default disk radius is the transmission range, which in a
    unit-disk graph reliably covers a handful of correlated links.
    """
    if duration < 1:
        raise InvalidParameterError(f"duration must be >= 1, got {duration}")
    r = topology.radius if radius is None else float(radius)
    if r < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {r}")
    rng = np.random.default_rng(seed)
    w, h = topology.area
    centers = rng.uniform(0.0, 1.0, size=(count, 2)) * np.asarray([w, h])
    when = _spread_epochs(rng, count, epochs)
    events: list[FaultEvent] = []
    for e, (cx, cy) in zip(when, centers.tolist()):
        covered = edges_crossing_disk(topology, (cx, cy), r)
        events.append(
            FaultEvent(
                epoch=int(e),
                kind="jam",
                edges=covered,
                center=(cx, cy),
                radius=r,
            )
        )
        end = int(e) + duration
        if end < epochs:
            events.append(
                FaultEvent(
                    epoch=end,
                    kind="jam_end",
                    edges=covered,
                    center=(cx, cy),
                    radius=r,
                )
            )
    return FaultPlan(tuple(events), epochs)


def random_campaign(
    topology: Topology,
    *,
    events: int,
    epochs: int,
    seed: int,
    crash_fraction: float = 0.2,
    weights: Optional[dict[str, float]] = None,
) -> FaultPlan:
    """A mixed seeded campaign: crashes, joins, flaps, degrades and jams.

    Draws ``events`` *scheduling decisions* from one RNG stream (so the
    whole campaign is a pure function of ``seed``), with kind
    probabilities from ``weights`` (default: flap-heavy with occasional
    crashes and jams; ``join`` defaults to 0 — opting in exercises
    grow+shrink+rewire interleavings).  Crashes are drawn without
    replacement from the *initial* population and hard capped at
    ``crash_fraction`` of it so a long campaign degrades the network
    instead of annihilating it; once the cap is hit, further crash
    draws become flaps.  Joins place a uniform random position in the
    deployment area and compile its unit-disk attach links against all
    earlier positions (including earlier arrivals); ids are assigned in
    plan order, matching :class:`FaultState`'s sequential numbering.

    Note the emitted plan can contain more than ``events`` records:
    every flap and jam schedules its own recovery event.
    """
    if events < 0:
        raise InvalidParameterError(f"events must be >= 0, got {events}")
    if not 0.0 <= crash_fraction <= 1.0:
        raise InvalidParameterError(
            f"crash_fraction must be in [0, 1], got {crash_fraction}"
        )
    kind_weights = {
        "crash": 0.1,
        "join": 0.0,
        "link_down": 0.45,
        "degrade": 0.3,
        "jam": 0.15,
    }
    if weights is not None:
        unknown = set(weights) - set(kind_weights)
        if unknown:
            raise InvalidParameterError(f"unknown campaign kinds {unknown}")
        kind_weights.update(weights)
    kinds = sorted(k for k, w in kind_weights.items() if w > 0)
    probs = np.asarray([kind_weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    g = topology.graph
    max_crashes = int(crash_fraction * g.n)
    alive = list(range(g.n))
    positions = [tuple(map(float, p)) for p in topology.positions.tolist()]
    out: list[FaultEvent] = []
    when = _spread_epochs(rng, events, epochs)
    for i in range(events):
        epoch = int(when[i])
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "crash" and (g.n - len(alive) >= max_crashes or not alive):
            kind = "link_down"
        if kind == "crash":
            x = alive.pop(int(rng.integers(len(alive))))
            out.append(FaultEvent(epoch=epoch, kind="crash", node=x))
        elif kind == "join":
            w, h = topology.area
            px = float(rng.uniform(0.0, w))
            py = float(rng.uniform(0.0, h))
            arr = np.asarray(positions, dtype=np.float64)
            d2 = ((arr - (px, py)) ** 2).sum(axis=1)
            x = len(positions)
            attach = tuple(
                normalize_edge(int(u), x)
                for u in np.flatnonzero(
                    d2 <= topology.radius * topology.radius
                ).tolist()
            )
            positions.append((px, py))
            out.append(
                FaultEvent(
                    epoch=epoch,
                    kind="join",
                    node=x,
                    edges=attach,
                    center=(px, py),
                )
            )
        elif kind == "link_down":
            if g.m == 0:
                continue
            (edge,) = _choose_edges(rng, g, 1, replace_=True)
            out.append(
                FaultEvent(epoch=epoch, kind="link_down", edges=(edge,))
            )
            up = epoch + int(rng.integers(1, 4))
            if up < epochs:
                out.append(
                    FaultEvent(epoch=up, kind="link_up", edges=(edge,))
                )
        elif kind == "degrade":
            if g.m == 0:
                continue
            (edge,) = _choose_edges(rng, g, 1, replace_=True)
            out.append(
                FaultEvent(
                    epoch=epoch,
                    kind="degrade",
                    edges=(edge,),
                    loss=float(rng.uniform(0.05, 0.5)),
                )
            )
        else:  # jam
            w, h = topology.area
            cx = float(rng.uniform(0.0, w))
            cy = float(rng.uniform(0.0, h))
            covered = edges_crossing_disk(topology, (cx, cy), topology.radius)
            out.append(
                FaultEvent(
                    epoch=epoch,
                    kind="jam",
                    edges=covered,
                    center=(cx, cy),
                    radius=topology.radius,
                )
            )
            end = epoch + int(rng.integers(1, 4))
            if end < epochs:
                out.append(
                    FaultEvent(
                        epoch=end,
                        kind="jam_end",
                        edges=covered,
                        center=(cx, cy),
                        radius=topology.radius,
                    )
                )
    return FaultPlan(tuple(out), epochs)


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #


@dataclass
class FaultState:
    """Mutable fold state compiling event batches onto a live graph.

    Tracks which nodes are dead, a per-link outage reference count (so
    overlapping jams and flaps compose correctly: a link only recovers
    when every outage holding it down has ended), the links added by
    ``join`` arrivals, and the current per-link loss overrides consumed
    by :class:`~repro.faults.delivery.LossModel`.

    The compiled graph always preserves node numbering — removals keep
    dead nodes as isolated vertices and arrivals append at the top —
    so clusterings and walks remain comparable across the whole
    campaign.
    """

    base: Graph
    graph: Graph = field(init=False)
    dead: set[int] = field(default_factory=set)
    down: Counter = field(default_factory=Counter)
    loss: dict[Edge, float] = field(default_factory=dict)
    grown: set[Edge] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.graph = self.base

    @property
    def base_edges(self) -> frozenset[Edge]:
        return frozenset(self.base.edges)

    def expected_edges(self) -> set[Edge]:
        """The edge set the compiled graph *must* have right now.

        Base edges plus join-grown attach links, minus any incident to
        a dead node, minus any held down by at least one active outage.
        The chaos harness checks the compiled graph against this after
        every batch.
        """
        return {
            e
            for e in set(self.base.edges) | self.grown
            if e[0] not in self.dead
            and e[1] not in self.dead
            and self.down[e] == 0
        }

    def apply_batch(self, batch: Sequence[FaultEvent]) -> Graph:
        """Fold one epoch's events into the current graph and return it.

        Crashes are applied one node at a time through
        :meth:`~repro.net.graph.Graph.without_nodes` and arrivals
        through :meth:`~repro.net.graph.Graph.with_nodes` (both edge
        deltas with CSR patching and oracle inheritance); all link
        changes in the batch collapse into a single
        :meth:`~repro.net.graph.Graph.with_edge_delta` call.
        """
        removed: set[Edge] = set()
        added: set[Edge] = set()
        for ev in batch:
            if ev.kind == "crash":
                x = ev.node
                if x is None:
                    raise InvalidParameterError("crash event without a node")
                if x in self.dead:
                    continue
                self.dead.add(x)
                self.graph = self.graph.without_nodes([x])
                # Loss overrides on links that no longer exist are moot.
                self.loss = {
                    e: p
                    for e, p in self.loss.items()
                    if x not in e
                }
            elif ev.kind == "join":
                x = ev.node
                if x is None:
                    raise InvalidParameterError("join event without a node id")
                if x != self.graph.n:
                    raise InvalidParameterError(
                        f"join numbering conflict: expected node "
                        f"{self.graph.n}, event plans {x} (composed "
                        "growth plans cannot interleave)"
                    )
                attach = [
                    e
                    for e in ev.edges
                    if e[0] not in self.dead and e[1] not in self.dead
                ]
                self.graph = self.graph.with_nodes(1, attach)
                self.grown.update(attach)
            elif ev.kind in ("link_down", "jam"):
                for e in ev.edges:
                    self.down[e] += 1
                    if self.down[e] == 1 and (
                        e in self.base_edges or e in self.grown
                    ):
                        removed.add(e)
                        added.discard(e)
            elif ev.kind in ("link_up", "jam_end"):
                for e in ev.edges:
                    if self.down[e] == 0:
                        continue
                    self.down[e] -= 1
                    if (
                        self.down[e] == 0
                        and (e in self.base_edges or e in self.grown)
                        and e[0] not in self.dead
                        and e[1] not in self.dead
                    ):
                        added.add(e)
                        removed.discard(e)
            elif ev.kind == "degrade":
                for e in ev.edges:
                    if ev.loss == 0.0:
                        self.loss.pop(e, None)
                    elif e[0] not in self.dead and e[1] not in self.dead:
                        self.loss[e] = ev.loss
            else:  # pragma: no cover - FaultEvent validates kinds
                raise InvalidParameterError(f"unknown fault kind {ev.kind!r}")
        # Crashes already dropped their incident edges; don't re-remove
        # (with_edge_delta would ignore it, but don't re-add either).
        removed = {
            e for e in removed if e[0] not in self.dead and e[1] not in self.dead
        }
        added = {
            e for e in added if e[0] not in self.dead and e[1] not in self.dead
        }
        if removed or added:
            self.graph = self.graph.with_edge_delta(
                added=sorted(added), removed=sorted(removed)
            )
        return self.graph

    def run(self, plan: FaultPlan) -> Iterator[tuple[int, Graph]]:
        """Apply a whole plan, yielding ``(epoch, graph)`` after each batch."""
        for epoch, batch in plan.batches():
            yield epoch, self.apply_batch(batch)
