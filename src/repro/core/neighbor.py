"""Neighbor-clusterhead selection rules (phase 1 of the paper's solution).

After clustering, each clusterhead must pick a set of *neighbor
clusterheads* to connect to.  If every head reaches each of its neighbors,
the whole cluster graph is connected — provided the rule is rich enough.
The paper contributes **A-NCR**; two baselines complete the picture:

* :func:`nc_neighbors` — the usual rule: all clusterheads within 2k+1 hops.
* :func:`ancr_neighbors` — **A-NCR**: only *adjacent* clusterheads (heads of
  clusters joined by at least one G-edge between their member sets,
  Definition 2).  Theorem 1: the adjacent-cluster graph G'' is connected,
  so this smaller set still guarantees global connectivity.
* :func:`wu_lou_neighbors` — Wu & Lou's "2.5-hop coverage" (k = 1 only):
  each head covers heads within 2 hops plus heads at exactly 3 hops that
  own a member inside the head's 2-hop neighborhood.  A-NCR at k=1 refines
  this further; the tests verify the inclusion chain
  ``A-NCR ⊆ Wu-Lou ⊆ NC`` at k = 1.

All rules return a mapping ``head -> sorted tuple of neighbor heads``.
NC and A-NCR are symmetric relations; Wu-Lou is directional in general
(the paper's Figure 2 shows unidirectional connections), so its mapping is
per-source coverage.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import InvalidParameterError, ValidationError
from ..net.graph import UNREACHABLE
from ..types import Edge, NodeId, normalize_edge
from .clustering import Clustering

__all__ = [
    "NeighborMap",
    "nc_neighbors",
    "adjacent_head_pairs",
    "ancr_neighbors",
    "wu_lou_neighbors",
    "neighbor_pairs",
    "is_symmetric",
    "cluster_graph_connected",
    "NEIGHBOR_RULES",
    "resolve_neighbor_rule",
]

#: head -> sorted tuple of neighbor heads.
NeighborMap = Mapping[NodeId, tuple[NodeId, ...]]


def nc_neighbors(clustering: Clustering) -> dict[NodeId, tuple[NodeId, ...]]:
    """Baseline NC rule: every other clusterhead within 2k+1 hops.

    Answered from one head-to-head pairwise distance matrix: the lazy
    backend computes head rows in bit-packed batched BFS sweeps (which
    also warms the row cache the virtual-link phase reads next), and the
    landmark backend joins 2-hop labels per pair — never a full row.
    Depth-bounded (2k+1)-balls around each head were tried instead and
    lost all 3 paper-sweep benchmark pairs (111-122 -> 97-107 instances a
    second on a 2-core host): the virtual-link phase still warms the
    heads' full rows, so the balls add work rather than replace it.
    """
    g = clustering.graph
    oracle = g.oracle
    reach = 2 * clustering.k + 1
    heads = clustering.heads
    if not heads:
        return {}
    dmat = oracle.pairwise_distances(heads)
    out: dict[NodeId, tuple[NodeId, ...]] = {}
    for i, h in enumerate(heads):
        near = dmat[i] <= reach  # UNREACHABLE never passes the test
        near[i] = False
        out[h] = tuple(w for j, w in enumerate(heads) if near[j])
    return out


def adjacent_head_pairs(clustering: Clustering) -> set[Edge]:
    """Unordered pairs of *adjacent* clusterheads (Definition 2).

    Clusters C1, C2 are adjacent iff some G-edge joins a member of C1 to a
    member of C2.  Because heads are > k >= 1 hops apart, the two endpoints
    of such an edge are never both clusterheads, matching the definition's
    parenthetical.
    """
    head_of = np.asarray(clustering.head_of, dtype=np.int64)
    edges = clustering.graph.edge_array
    u, v = edges[:, 0], edges[:, 1]
    hu, hv = head_of[u], head_of[v]
    cross = hu != hv
    heads_meet = np.flatnonzero(cross & (u == hu) & (v == hv))
    if heads_meet.size:  # pragma: no cover - excluded by k-hop IS
        a, b = edges[heads_meet[0]].tolist()
        raise ValidationError(
            f"adjacent heads {a},{b} are direct neighbors; "
            "k-hop independence is violated"
        )
    hu, hv = hu[cross], hv[cross]
    lo = np.minimum(hu, hv).tolist()
    hi = np.maximum(hu, hv).tolist()
    return set(zip(lo, hi))


def ancr_neighbors(clustering: Clustering) -> dict[NodeId, tuple[NodeId, ...]]:
    """A-NCR (the paper's rule): neighbor heads = adjacent clusterheads."""
    out: dict[NodeId, list[NodeId]] = {h: [] for h in clustering.heads}
    for a, b in adjacent_head_pairs(clustering):
        out[a].append(b)
        out[b].append(a)
    return {h: tuple(sorted(v)) for h, v in out.items()}


def wu_lou_neighbors(clustering: Clustering) -> dict[NodeId, tuple[NodeId, ...]]:
    """Wu & Lou "2.5-hop coverage" [17] — defined for k = 1 clustering only.

    Head ``u`` covers (i) all heads within 2 hops, and (ii) heads at exactly
    3 hops that have at least one member inside ``u``'s 2-hop neighborhood.
    """
    if clustering.k != 1:
        raise InvalidParameterError(
            f"Wu-Lou 2.5-hop coverage applies to k=1 clustering, got k={clustering.k}"
        )
    g = clustering.graph
    oracle = g.oracle
    heads = clustering.heads
    out: dict[NodeId, tuple[NodeId, ...]] = {}
    for u in heads:
        dmap = oracle.ball_map(u, 3)
        within2 = {w for w, d in dmap.items() if d <= 2}
        covered: list[NodeId] = []
        for v in heads:
            if v == u:
                continue
            d = dmap.get(v, UNREACHABLE)
            if d <= 2:
                covered.append(v)
            elif d == 3:
                # v's cluster has a member within u's 2-hop neighborhood?
                if any(w in within2 for w in clustering.members(v)):
                    covered.append(v)
        out[u] = tuple(covered)
    return out


def neighbor_pairs(neighbor_map: NeighborMap) -> set[Edge]:
    """All unordered pairs implied by a neighbor map (direction dropped)."""
    pairs: set[Edge] = set()
    for h, nbrs in neighbor_map.items():
        for w in nbrs:
            pairs.add(normalize_edge(h, w))
    return pairs


def is_symmetric(neighbor_map: NeighborMap) -> bool:
    """Whether ``v in N(u)`` always implies ``u in N(v)``."""
    for h, nbrs in neighbor_map.items():
        for w in nbrs:
            if h not in neighbor_map.get(w, ()):
                return False
    return True


def cluster_graph_connected(
    heads: tuple[NodeId, ...], pairs: set[Edge]
) -> bool:
    """Connectivity of the cluster graph ``G'`` via union-find.

    ``heads`` with no pairs counts as connected iff there is at most one
    head.
    """
    if len(heads) <= 1:
        return True
    parent = {h: h for h in heads}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    roots = {find(h) for h in heads}
    return len(roots) == 1


#: Registry of neighbor rules usable in the end-to-end pipeline.
NEIGHBOR_RULES = {
    "NC": nc_neighbors,
    "AC": ancr_neighbors,
}


def resolve_neighbor_rule(name: str):
    """Look up a neighbor rule by registry name (``"NC"`` or ``"AC"``)."""
    try:
        return NEIGHBOR_RULES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown neighbor rule {name!r}; known: {sorted(NEIGHBOR_RULES)}"
        ) from None
