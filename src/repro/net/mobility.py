"""Mobility and churn processes for the dynamics of §3.3.

The paper's maintenance discussion considers nodes that "disappear" (switch
off or move away) and distinguishes three repair cases by the failed node's
role.  Two simple processes drive those experiments:

* :class:`RandomWaypoint` — the standard MANET mobility model: each node
  picks a uniform waypoint, moves toward it at a uniform speed, then picks a
  new one.  Used to generate *topology sequences* whose successive unit-disk
  graphs differ by a few edges.
* :class:`ChurnProcess` — memoryless on/off switching: each alive node dies
  with probability ``p_off`` per step, each dead node revives with ``p_on``.
  Used to generate the failure events consumed by :mod:`repro.maintenance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from .geometry import Area
from .graph import Graph, _edge_keys, _member
from .topology import unit_disk_edges, unit_disk_graph

__all__ = ["RandomWaypoint", "ChurnProcess", "snapshot_edge_delta"]


class RandomWaypoint:
    """Random-waypoint mobility over a rectangular area.

    Args:
        positions: initial ``(n, 2)`` coordinates (copied).
        area: movement rectangle.
        speed_range: ``(v_min, v_max)``, units per step, sampled per leg.
        rng: NumPy generator driving waypoint and speed choices.
    """

    def __init__(
        self,
        positions: np.ndarray,
        area: Area,
        speed_range: tuple[float, float],
        rng: np.random.Generator,
    ) -> None:
        v_min, v_max = speed_range
        if not (0 <= v_min <= v_max):
            raise InvalidParameterError(f"bad speed range {speed_range!r}")
        self.area = area
        self._rng = rng
        self._pos = np.array(positions, dtype=np.float64, copy=True)
        self._speed_range = (float(v_min), float(v_max))
        n = self._pos.shape[0]
        self._targets = self._draw_targets(n)
        self._speeds = self._draw_speeds(n)

    def _draw_targets(self, count: int) -> np.ndarray:
        t = self._rng.random((count, 2))
        t[:, 0] *= self.area[0]
        t[:, 1] *= self.area[1]
        return t

    def _draw_speeds(self, count: int) -> np.ndarray:
        lo, hi = self._speed_range
        return lo + (hi - lo) * self._rng.random(count)

    @property
    def positions(self) -> np.ndarray:
        """Current coordinates (copy)."""
        return self._pos.copy()

    @property
    def speed_range(self) -> tuple[float, float]:
        """The ``(v_min, v_max)`` per-leg speed bounds."""
        return self._speed_range

    @property
    def leg_speeds(self) -> np.ndarray:
        """Current per-node leg speeds (copy) — each within ``speed_range``."""
        return self._speeds.copy()

    @property
    def leg_targets(self) -> np.ndarray:
        """Current per-node waypoints (copy) — each inside ``area``."""
        return self._targets.copy()

    def advance(self, steps: int) -> np.ndarray:
        """Advance ``steps`` time steps; returns the final positions (copy).

        Exactly equivalent to calling :meth:`step` ``steps`` times — the
        per-leg waypoint/speed draws happen in the same per-step order,
        so trajectories are identical however the steps are batched (the
        seeded-reproducibility contract the regression matrix relies on).
        """
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()
        return self.positions

    def step(self) -> np.ndarray:
        """Advance one time step; returns the new positions (copy).

        Nodes that reach their waypoint this step stop there and draw a new
        waypoint and speed for the next step.
        """
        delta = self._targets - self._pos
        dist = np.sqrt((delta**2).sum(axis=1))
        arrive = dist <= self._speeds
        move = ~arrive & (dist > 0)
        if move.any():
            unit = delta[move] / dist[move, None]
            self._pos[move] += unit * self._speeds[move, None]
        if arrive.any():
            self._pos[arrive] = self._targets[arrive]
            idx = np.flatnonzero(arrive)
            fresh_t = self._draw_targets(idx.size)
            fresh_s = self._draw_speeds(idx.size)
            self._targets[idx] = fresh_t
            self._speeds[idx] = fresh_s
        return self.positions

    def snapshot_graph(self, radius: float) -> Graph:
        """Unit-disk graph of the current positions."""
        return unit_disk_graph(self._pos, radius)

    def snapshot_edges(self, radius: float) -> np.ndarray:
        """Unit-disk edge array of the current positions.

        The raw material for :func:`snapshot_edge_delta`, in
        :attr:`Graph.edge_array` form (:func:`unit_disk_edges`) — no
        :class:`Graph` is constructed.
        """
        return unit_disk_edges(self._pos, radius)


def snapshot_edge_delta(
    graph: Graph, new_edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diff a snapshot's edges against ``graph``: ``(added, removed)``.

    ``new_edges`` are ``(u, v)`` pairs, e.g. the edge array
    :meth:`RandomWaypoint.snapshot_edges` returns.  Both results are
    ``(k, 2)`` int64 arrays sorted by ``(u, v)`` (deterministic
    downstream processing), found by two ``searchsorted`` joins of the
    sorted edge keys; feed them to :meth:`Graph.with_edge_delta` to
    evolve the graph incrementally.
    """
    n = graph.n
    old = graph.edge_array[:, 0] * n + graph.edge_array[:, 1]
    new = _edge_keys(new_edges, n)
    added = new[~_member(old, new)]
    removed = old[~_member(new, old)]
    return (
        np.stack(np.divmod(added, n), axis=1),
        np.stack(np.divmod(removed, n), axis=1),
    )


@dataclass
class ChurnEvent:
    """One node state flip: ``kind`` is ``"off"`` or ``"on"``."""

    step: int
    node: int
    kind: str


class ChurnProcess:
    """Memoryless per-step node on/off churn.

    Args:
        n: node count.
        p_off: per-step probability an alive node switches off.
        p_on: per-step probability a dead node switches back on.
        rng: NumPy generator.
    """

    def __init__(
        self, n: int, p_off: float, p_on: float, rng: np.random.Generator
    ) -> None:
        for name, p in (("p_off", p_off), ("p_on", p_on)):
            if not (0.0 <= p <= 1.0):
                raise InvalidParameterError(f"{name} must be in [0, 1], got {p}")
        self.n = n
        self.p_off = p_off
        self.p_on = p_on
        self._rng = rng
        self._alive = np.ones(n, dtype=bool)
        self._step = 0

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean alive vector (copy)."""
        return self._alive.copy()

    def alive_nodes(self) -> tuple[int, ...]:
        """Sorted tuple of currently-alive node IDs."""
        return tuple(np.flatnonzero(self._alive).tolist())

    def dead_nodes(self) -> tuple[int, ...]:
        """Sorted tuple of currently-dead node IDs."""
        return tuple(np.flatnonzero(~self._alive).tolist())

    def step(self) -> list[ChurnEvent]:
        """Advance one step; returns the state-flip events in node order."""
        self._step += 1
        draws = self._rng.random(self.n)
        events: list[ChurnEvent] = []
        for u in range(self.n):
            if self._alive[u] and draws[u] < self.p_off:
                self._alive[u] = False
                events.append(ChurnEvent(self._step, u, "off"))
            elif not self._alive[u] and draws[u] < self.p_on:
                self._alive[u] = True
                events.append(ChurnEvent(self._step, u, "on"))
        return events
