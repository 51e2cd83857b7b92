"""Random unit-disk topology generation with average-degree calibration.

The paper's simulation setup (§4): ``N`` nodes placed uniformly at random in
a restricted 100 x 100 area, identical transmission ranges, average node
degree ``D`` in {6, 10}, and an ideal MAC layer.  Disconnected samples are
useless for connected-clustering experiments, so the generator redraws until
the unit-disk graph is connected (standard practice in this literature, and
implied by the paper's Theorem 1 premise that ``G`` is connected).

Edges come from one path, :func:`unit_disk_edges`: nodes are binned into
radius-sized grid cells and only pairs in the same or adjacent cells are
measured, so no ``(n, n)`` distance matrix is formed at any size.  It
returns the edges as an array, and :func:`random_topology` rejects a
draw with an isolated node (one ``bincount`` over those arrays) before it
builds any :class:`Graph`; only the remaining draws pay for the CSR
arrays and one connectivity pass.  Rejection never changes what is
accepted: positions are drawn exactly as before and a graph with an
isolated node (``n >= 2``) is disconnected anyway.

Two radius-calibration modes are offered:

* ``"analytic"`` — ``r = sqrt(D * A / (pi * N))`` equates the expected
  number of nodes in a transmission disk with ``D``; border effects make the
  realized mean degree slightly lower.
* ``"empirical"`` — bisect on ``r`` until the realized mean degree over a
  few position samples is within tolerance of ``D``; slower but tighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import CalibrationError, InvalidParameterError
from .geometry import PAPER_AREA, Area, pairwise_distances, random_positions
from .graph import Graph
from .oracle import csr_offsets

__all__ = [
    "Topology",
    "radius_for_degree",
    "calibrate_radius",
    "unit_disk_edges",
    "unit_disk_graph",
    "random_topology",
]


@dataclass(frozen=True)
class Topology:
    """A generated ad hoc network instance.

    Attributes:
        graph: the unit-disk connectivity graph.
        positions: ``(n, 2)`` node coordinates.
        radius: common transmission range used to build ``graph``.
        area: deployment rectangle.
        seed: seed of the RNG stream that produced the accepted sample.
        attempts: how many position draws were needed to get a connected
            sample (1 = first try); useful for reporting sampling bias.
    """

    graph: Graph
    positions: np.ndarray
    radius: float
    area: Area = PAPER_AREA
    seed: Optional[int] = None
    attempts: int = 1
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    def realized_degree(self) -> float:
        """Mean degree of the generated graph."""
        return self.graph.average_degree()

    def with_node(self, position: np.ndarray) -> "Topology":
        """The topology grown by one node at ``position`` (the arrival case).

        The new node takes ID ``n``; its attachment edges are every
        existing node within the common transmission ``radius``, computed
        with the same float expression as :func:`unit_disk_edges` so
        growth and from-scratch generation agree bit-identically at the
        radius knife-edge.  The underlying graph grows through
        :meth:`Graph.with_nodes` (CSR splice + oracle cache
        inheritance); an arrival outside everyone's range still joins the
        topology, just as an isolated node.
        """
        pos = np.asarray(position, dtype=np.float64).reshape(2)
        diff = self.positions - pos
        within = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= self.radius
        x = self.n
        grown = self.graph.with_nodes(
            1, [(int(u), x) for u in np.flatnonzero(within)]
        )
        return replace(
            self,
            graph=grown,
            positions=np.concatenate([self.positions, pos[None, :]]),
        )


def radius_for_degree(n: int, degree: float, area: Area = PAPER_AREA) -> float:
    """Analytic transmission range for a target average degree.

    Solves ``degree = (n - 1) * pi * r^2 / A`` (expected neighbors of a node
    whose disk lies fully inside the area).
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2 to talk about degree, got n={n}")
    if degree <= 0:
        raise InvalidParameterError(f"target degree must be positive, got {degree}")
    a = area[0] * area[1]
    return math.sqrt(degree * a / (math.pi * (n - 1)))


def unit_disk_edges(positions: np.ndarray, radius: float) -> np.ndarray:
    """The unit-disk edge set of ``positions`` without building a graph.

    Returns the ``(m, 2)`` int64 array of pairs ``u < v`` at Euclidean
    distance ``<= radius``, sorted by ``(u, v)`` — the form of
    :attr:`Graph.edge_array`.  The mobility loop diffs consecutive
    snapshots' edge arrays to feed :meth:`Graph.with_edge_delta`, and
    :func:`random_topology` screens draws on them, so neither pays the
    ``Graph`` constructor for a throwaway object.

    Spatial hashing does O(n · local density) work: nodes are binned into
    a grid of cells at least ``radius`` wide, so every in-range pair sits
    in the same or adjacent cells, and each adjacent cell pair is visited
    once (half-neighborhood stencil).  Nodes are sorted by cell key once,
    each stencil offset becomes one ``searchsorted`` join of all nodes
    against all target cells, and candidate pairs are materialized with
    ``repeat``/offset arithmetic — no Python per-cell loop (this runs once
    per mobility snapshot and once per topology draw).
    """
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    origin = pos.min(axis=0)
    extent = float((pos.max(axis=0) - origin).max())
    # Cells a hair wider than the radius keep every in-range pair within
    # one cell step despite rounding.  The floor on the side bounds the
    # grid at 2**20 cells a side (so the scalar key below cannot overflow)
    # and gives radius 0, where only coincident points connect, a
    # positive side.
    side = max(radius * (1.0 + 2.0**-20), extent * 2.0**-20) or 1.0
    cells = np.floor((pos - origin) / side).astype(np.int64)
    shift = np.int64(1) << np.int64(31)
    key = cells[:, 0] * shift + cells[:, 1]
    order = np.argsort(key)
    skey = key[order]
    starts = np.flatnonzero(np.concatenate([[True], skey[1:] != skey[:-1]]))
    uniq_keys = skey[starts]
    bounds = np.concatenate([starts, [n]])
    # (0,0) covers within-cell pairs; the four forward offsets visit every
    # unordered pair of adjacent cells exactly once.  All five join every
    # node against its target cells in one searchsorted.
    stencil = np.array([0, shift, 1, shift + 1, shift - 1], dtype=np.int64)
    target = (key + stencil[:, None]).ravel()
    cell_pos = np.minimum(np.searchsorted(uniq_keys, target), uniq_keys.size - 1)
    src = np.flatnonzero(uniq_keys[cell_pos] == target)
    offsets, counts = csr_offsets(bounds, cell_pos[src])
    ii = np.repeat(src % n, counts)
    jj = order[offsets]
    keep = np.repeat(src >= n, counts) | (ii < jj)  # within-cell pairs once
    ii, jj = ii[keep], jj[keep]
    diff = pos[ii] - pos[jj]
    # The same float expression as Topology.with_node and the service's
    # join, so growth and generation agree at the radius knife-edge.
    ok = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= radius
    lo = np.minimum(ii[ok], jj[ok])
    hi = np.maximum(ii[ok], jj[ok])
    keys = np.sort(lo * n + hi)
    return np.stack(np.divmod(keys, n), axis=1)


def unit_disk_graph(positions: np.ndarray, radius: float) -> Graph:
    """Unit-disk graph: an edge wherever Euclidean distance <= ``radius``."""
    pos = np.asarray(positions, dtype=np.float64)
    return Graph(pos.shape[0], unit_disk_edges(pos, radius))


def calibrate_radius(
    n: int,
    degree: float,
    area: Area = PAPER_AREA,
    *,
    rng: np.random.Generator,
    samples: int = 8,
    tol: float = 0.05,
    max_iter: int = 40,
) -> float:
    """Empirically bisect the radius so realized mean degree ~= ``degree``.

    Averages the realized mean degree over ``samples`` independent uniform
    placements at each candidate radius, then bisects.  ``tol`` is relative
    (0.05 = within 5 % of target).

    Raises:
        CalibrationError: if the bracket cannot be established or bisection
            does not converge in ``max_iter`` steps.
    """
    if degree >= n - 1:
        raise InvalidParameterError(
            f"target degree {degree} unreachable with n={n} (max is n-1)"
        )
    position_sets = [random_positions(n, area, rng) for _ in range(samples)]
    dists = [pairwise_distances(p) for p in position_sets]

    def realized(r: float) -> float:
        total = 0.0
        for d in dists:
            iu, ju = np.triu_indices(n, k=1)
            m = int((d[iu, ju] <= r).sum())
            total += 2.0 * m / n
        return total / len(dists)

    lo = 0.0
    hi = radius_for_degree(n, degree, area)
    grow = 0
    while realized(hi) < degree:
        hi *= 1.5
        grow += 1
        if grow > 30:
            raise CalibrationError("could not bracket target degree from above")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        got = realized(mid)
        if abs(got - degree) <= tol * degree:
            return mid
        if got < degree:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"radius calibration did not converge for n={n}, degree={degree}"
    )


def random_topology(
    n: int,
    degree: float,
    *,
    seed: int,
    area: Area = PAPER_AREA,
    calibration: str = "analytic",
    radius: Optional[float] = None,
    require_connected: bool = True,
    max_attempts: int = 5000,
) -> Topology:
    """Generate a random connected unit-disk topology (the paper's workload).

    Args:
        n: number of nodes (50..200 in the paper).
        degree: target average node degree (6 or 10 in the paper).
        seed: base seed; each redraw uses an independent child stream, so a
            given ``(n, degree, seed)`` is fully reproducible.
        area: deployment rectangle, default the paper's 100 x 100.
        calibration: ``"analytic"`` or ``"empirical"`` (see module docs).
        radius: explicit transmission range; overrides ``calibration`` when
            given (sweep runners calibrate once per (n, degree) and reuse).
        require_connected: redraw until the sample is connected.
        max_attempts: redraw budget before raising.

    Raises:
        CalibrationError: when no connected sample is found in budget —
            typically means the requested degree is too low for ``n``.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if calibration not in ("analytic", "empirical"):
        raise InvalidParameterError(f"unknown calibration mode {calibration!r}")
    root = np.random.default_rng(seed)
    if n == 1:
        return Topology(
            Graph(1), np.zeros((1, 2)), radius=0.0, area=area, seed=seed, attempts=1
        )
    if radius is None:
        if calibration == "analytic":
            radius = radius_for_degree(n, degree, area)
        else:
            radius = calibrate_radius(n, degree, area, rng=root)
    for attempt in range(1, max_attempts + 1):
        positions = random_positions(n, area, root)
        edges = unit_disk_edges(positions, radius)
        if require_connected and np.bincount(edges.ravel(), minlength=n).min() == 0:
            continue  # an isolated node: disconnected, no Graph built
        graph = Graph(n, edges)
        if not require_connected or graph.is_connected():
            return Topology(
                graph=graph,
                positions=positions,
                radius=radius,
                area=area,
                seed=seed,
                attempts=attempt,
            )
    raise CalibrationError(
        f"no connected unit-disk sample in {max_attempts} attempts "
        f"(n={n}, degree={degree}, radius={radius:.2f}); "
        "increase degree or max_attempts"
    )
