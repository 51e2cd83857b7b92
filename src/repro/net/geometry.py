"""2-D geometry helpers for unit-disk radio topologies.

The paper deploys ``N`` nodes uniformly at random in a restricted
``100 x 100`` area and assumes every node has the same transmission range.
This module provides the vectorized geometric primitives that the topology
generator builds on: uniform placement and pairwise Euclidean distances.
Everything is NumPy-vectorized; no Python-level double loops over node
pairs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "Area",
    "random_positions",
    "grid_positions",
    "pairwise_distances",
    "bounding_box",
]

#: Rectangular deployment area ``(width, height)`` with origin at (0, 0).
Area = Tuple[float, float]

#: The paper's deployment area.
PAPER_AREA: Area = (100.0, 100.0)


def _check_area(area: Area) -> Area:
    w, h = float(area[0]), float(area[1])
    if w <= 0 or h <= 0:
        raise InvalidParameterError(f"area sides must be positive, got {area!r}")
    return (w, h)


def random_positions(n: int, area: Area, rng: np.random.Generator) -> np.ndarray:
    """Place ``n`` nodes i.i.d. uniformly in ``area``.

    Args:
        n: number of nodes (``n >= 0``).
        area: ``(width, height)`` of the deployment rectangle.
        rng: NumPy random generator (callers own seeding policy).

    Returns:
        ``(n, 2)`` float64 array of coordinates.
    """
    if n < 0:
        raise InvalidParameterError(f"node count must be >= 0, got {n}")
    w, h = _check_area(area)
    pos = rng.random((n, 2))
    pos[:, 0] *= w
    pos[:, 1] *= h
    return pos


def grid_positions(rows: int, cols: int, spacing: float = 1.0) -> np.ndarray:
    """Regular grid placement, row-major node numbering.

    Useful for tests where hop distances must be known analytically.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid needs rows >= 1 and cols >= 1")
    if spacing <= 0:
        raise InvalidParameterError(f"spacing must be positive, got {spacing}")
    ys, xs = np.mgrid[0:rows, 0:cols]
    pos = np.column_stack([xs.ravel() * spacing, ys.ravel() * spacing])
    return pos.astype(np.float64)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` Euclidean distance matrix.

    For the network sizes of the paper (N <= 200) the dense matrix is both
    the fastest and the simplest representation; avoid it for n >> 10^4.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise InvalidParameterError(f"positions must have shape (n, 2), got {pos.shape}")
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def bounding_box(positions: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    """``(xmin, ymin, xmax, ymax)`` of a non-empty position array."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        raise InvalidParameterError("bounding_box of an empty position set")
    return (
        float(pos[:, 0].min()),
        float(pos[:, 1].min()),
        float(pos[:, 0].max()),
        float(pos[:, 1].max()),
    )
