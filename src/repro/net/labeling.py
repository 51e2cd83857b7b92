"""Exact landmark distance labeling (the ``"landmark"`` oracle backend).

Pair-heavy consumers — routing stretch sampling, the NC neighbor rule,
repair validation under churn — ask the distance machinery for *single
pair* distances, and on the lazy backend each cold pair query costs a full
O(n + m) BFS row.  Bounded-stretch geometric graphs (the paper's unit-disk
regime; cf. Yao-graph spanner results) have exactly the structure that
makes **2-hop distance labeling** tiny: a small set of high-degree
"landmark" hubs covers almost every shortest path.

:class:`LandmarkDistanceOracle` implements **pruned landmark labeling**
(Akiba, Iwata & Yoshida, SIGMOD 2013): roots are processed in decreasing
degree rank, each performing a *pruned* BFS that labels a node ``v`` with
``(rank, d(root, v))`` only when the labels built so far cannot already
prove a distance ``<= d``.  The first ~O(√n) degree-ranked roots
contribute nearly all label entries on unit-disk-style graphs; later
roots' BFS prune almost immediately.  Because every vertex is processed,
the resulting labels are **exact** for all pairs (same-component queries
return the true hop distance, cross-component queries return
:data:`~repro.net.oracle.UNREACHABLE`), so the backend is observationally
identical to ``dense``/``lazy`` — the property tests enforce this.

Queries join the two sorted label arrays in O(|label(u)| + |label(v)|)
without materializing any BFS row.  Ball and row queries fall back to the
inherited lazy CSR machinery, so the backend is a drop-in for every
consumer.  Labels are built lazily on the first pair query.  Construction
(:func:`build_pruned_labels`) runs each root's pruned BFS as masked
level-synchronous sweeps over the CSR arrays: the whole frontier's prune
checks are one gather of hub distances over padded per-node label arrays
plus one masked row-min, and surviving nodes are labeled and expanded
with array operations — no per-node Python work.  That opens the
landmark backend to ``N >= 10^4`` graphs (a full N=10^4 unit-disk build
is part of ``make bench-pipeline``); memory during construction is
O(n · max label length) for the padded arrays.

Every graph mutation — failure, motion or arrival — reaches the oracle
as an edge delta (:meth:`Graph.with_edge_delta`), and the derived oracle
is constructed label-cold: a label certifies arbitrary pairs, so no
per-pair validity rule survives a delta cheaply.  Cached rows and balls
still arrive through :meth:`LazyDistanceOracle.inherit_edge_delta`, and
``distance`` prefers a resident row over a label join, so the inherited
cache keeps answering most pair queries until the labels rebuild lazily
on the next one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from ..obs import counter as obs_counter
from ..obs import span
from ..types import DistArray, IndexArray, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from .graph import Graph
from .oracle import (
    DIST_DTYPE,
    UNREACHABLE,
    LazyDistanceOracle,
    OracleStats,
    gather_csr_neighbors,
)

__all__ = ["LandmarkDistanceOracle", "build_pruned_labels"]


def _root_order(indptr: IndexArray, n: int) -> IndexArray:
    """Root processing order: decreasing degree, ties by increasing ID."""
    degrees = np.diff(indptr)
    return np.lexsort((np.arange(n), -degrees)).astype(np.int64)


def build_pruned_labels(
    indptr: IndexArray, indices: IndexArray, n: int
) -> tuple[list[IndexArray], list[DistArray], IndexArray]:
    """Build exact 2-hop labels by pruned BFS from degree-ranked roots.

    Returns ``(label_ranks, label_dists, order)``: per-node sorted arrays
    of hub *ranks* and the matching hop distances, plus the rank -> node
    ordering (``order[0]`` is the highest-degree landmark).

    Each root's pruned BFS runs level-synchronously over the CSR arrays.
    Per-node labels live in capacity-doubled padded 2D arrays
    (``lab_rank``/``lab_dist`` of shape ``(n, cap)`` plus a length
    vector), so one level's PLL prune check — "can the labels built so
    far already certify a distance <= depth between root and v?" — is a
    single gather of the root's hub distances through the frontier's
    label rows, a masked add, and a row-min, instead of a Python loop
    over every label entry.  Nodes that survive the check are labeled
    ``(rank, depth)`` and expanded by one vectorized CSR gather; pruned
    nodes are not expanded (their subtree is reachable no cheaper, the
    PLL invariant).  Produces byte-identical labels to the per-node
    reference (:func:`_build_pruned_labels_reference`, kept for the
    equivalence tests).
    """
    order = _root_order(indptr, n)
    if n == 0:
        return [], [], order
    inf = np.int64(UNREACHABLE)
    cap = 8
    lab_rank = np.zeros((n, cap), dtype=np.int64)
    lab_dist = np.zeros((n, cap), dtype=DIST_DTYPE)
    lab_len = np.zeros(n, dtype=np.int64)
    col_ids = np.arange(cap)
    # Distance from the current root to every hub, indexed by hub rank.
    # int64, not DIST_DTYPE: the prune check adds the UNREACHABLE
    # sentinel to label distances, which must not wrap in int32; keeping
    # the headroom on this (n,)-sized vector upcasts the whole gather.
    hub_dist = np.full(n, inf, dtype=np.int64)  # repro-lint: disable=R002
    # PLL is sequential in the root rank by definition (each root's BFS
    # prunes against every earlier root's labels); the per-root work
    # below is fully vectorized.
    for rank in range(n):  # repro-lint: disable=R004
        root = int(order[rank])
        root_len = int(lab_len[root])
        root_hubs = lab_rank[root, :root_len]
        hub_dist[root_hubs] = lab_dist[root, :root_len]
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        frontier = np.asarray([root], dtype=np.int64)
        depth = 0
        while frontier.size:
            # --- prune check, whole level at once ---------------------- #
            # Clip the gather to the frontier's longest label: early roots
            # run against near-empty labels, so their (wide) BFS levels
            # touch a handful of columns instead of the full capacity.
            lens = lab_len[frontier]
            width = int(lens.max())
            if width:
                rows_rank = lab_rank[frontier, :width]
                rows_dist = lab_dist[frontier, :width]
                valid = col_ids[:width] < lens[:, None]
                via_hub = np.where(
                    valid, hub_dist[rows_rank] + rows_dist, inf
                )
                kept = frontier[via_hub.min(axis=1) > depth]
            else:
                kept = frontier  # empty labels certify nothing
            # --- label the survivors ----------------------------------- #
            if kept.size:
                if int(lab_len[kept].max()) >= cap:
                    lab_rank = np.concatenate(
                        [lab_rank, np.zeros((n, cap), dtype=np.int64)], axis=1
                    )
                    lab_dist = np.concatenate(
                        [lab_dist, np.zeros((n, cap), dtype=DIST_DTYPE)],
                        axis=1,
                    )
                    cap *= 2
                    col_ids = np.arange(cap)
                slot = lab_len[kept]
                lab_rank[kept, slot] = rank
                lab_dist[kept, slot] = depth
                lab_len[kept] += 1
            # --- expand only the survivors ----------------------------- #
            if kept.size == 0:
                break
            if kept.size == 1:
                # Dominant shape for late roots (the root itself, then an
                # immediately-pruned neighbor ring): one CSR slice, already
                # sorted and duplicate-free.
                v = int(kept[0])
                nbrs = indices[indptr[v] : indptr[v + 1]]
                frontier = nbrs[~seen[nbrs]]
            else:
                nbrs, _ = gather_csr_neighbors(indptr, indices, kept)
                if nbrs.size == 0:
                    break
                frontier = np.unique(nbrs[~seen[nbrs]])
            if frontier.size == 0:
                break
            seen[frontier] = True
            depth += 1
        hub_dist[root_hubs] = inf
    ranks_out = [lab_rank[u, : lab_len[u]].copy() for u in range(n)]
    dists_out = [
        lab_dist[u, : lab_len[u]].astype(DIST_DTYPE) for u in range(n)
    ]
    return ranks_out, dists_out, order


def _build_pruned_labels_reference(
    indptr: IndexArray, indices: IndexArray, n: int
) -> tuple[list[IndexArray], list[DistArray], IndexArray]:
    """Per-node reference PLL construction (the pre-vectorization path).

    Kept as the ground truth for the CSR-vs-reference label-equality
    tests; observationally identical to :func:`build_pruned_labels`.
    """
    order = _root_order(indptr, n)
    neighbors = [indices[indptr[u] : indptr[u + 1]].tolist() for u in range(n)]
    label_ranks: list[list[int]] = [[] for _ in range(n)]
    label_dists: list[list[int]] = [[] for _ in range(n)]
    hub_dist = [UNREACHABLE] * n  # distance from current root, by hub rank
    for rank in range(n):
        root = int(order[rank])
        root_ranks = label_ranks[root]
        root_dists = label_dists[root]
        for rk, dd in zip(root_ranks, root_dists):
            hub_dist[rk] = dd
        seen = bytearray(n)
        seen[root] = 1
        frontier = [root]
        depth = 0
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                # Prune when existing labels already certify a distance
                # <= depth between root and v (the PLL invariant).
                best = UNREACHABLE
                for rk, dd in zip(label_ranks[v], label_dists[v]):
                    t = hub_dist[rk] + dd
                    if t < best:
                        best = t
                if best <= depth:
                    continue
                label_ranks[v].append(rank)
                label_dists[v].append(depth)
                for w in neighbors[v]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt
            depth += 1
        for rk in root_ranks:
            hub_dist[rk] = UNREACHABLE
    ranks_out = [np.asarray(r, dtype=np.int64) for r in label_ranks]
    dists_out = [np.asarray(d, dtype=DIST_DTYPE) for d in label_dists]
    return ranks_out, dists_out, order


def _label_join(
    ru: IndexArray, du: DistArray, rv: IndexArray, dv: DistArray
) -> int:
    """Minimum ``d(u, hub) + d(hub, v)`` over shared hubs (sorted join)."""
    common, iu, iv = np.intersect1d(
        ru, rv, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return UNREACHABLE
    return int((du[iu] + dv[iv]).min())


class LandmarkDistanceOracle(LazyDistanceOracle):
    """Lazy CSR oracle plus exact pruned landmark labels for pair queries.

    ``distance`` / ``distances`` / ``pair_distances`` /
    ``pairwise_distances`` are answered from 2-hop labels in
    O(|label|) per pair; ``row`` and ``ball`` fall back to the inherited
    lazy CSR machinery.  Labels are built on the first pair query and
    shared for the oracle's lifetime.
    """

    backend = "landmark"
    fast_pairs = True  # label joins, never a BFS row

    def __init__(self, graph: "Graph", **kwargs: object) -> None:
        super().__init__(graph, **kwargs)
        self._label_ranks: list[IndexArray] | None = None
        self._label_dists: list[DistArray] | None = None
        self._landmark_order: IndexArray | None = None
        self._label_entries = 0
        self._pair_queries = 0

    # -- labels --------------------------------------------------------- #

    @property
    def labels_built(self) -> bool:
        """Whether the 2-hop labels have been constructed yet."""
        return self._label_ranks is not None

    def _ensure_labels(self) -> None:
        if self._label_ranks is None:
            with span("labels", n=self._graph.n):
                self._label_ranks, self._label_dists, self._landmark_order = (
                    build_pruned_labels(
                        self._indptr, self._indices, self._graph.n
                    )
                )
                self._label_entries = sum(r.size for r in self._label_ranks)
                obs_counter("oracle.labels_built").add()

    def label(self, u: NodeId) -> tuple[IndexArray, DistArray]:
        """``u``'s 2-hop label as ``(hub_ranks, hub_dists)`` arrays."""
        self._ensure_labels()
        return self._label_ranks[int(u)], self._label_dists[int(u)]

    def landmarks(self, count: int) -> tuple[int, ...]:
        """The ``count`` highest-ranked landmark node IDs (degree order)."""
        self._ensure_labels()
        return tuple(int(x) for x in self._landmark_order[:count])

    # -- pair queries ---------------------------------------------------- #

    def distance(self, u: NodeId, v: NodeId) -> int:
        u, v = int(u), int(v)
        if u == v:
            return 0
        cached = self._rows.get(u)
        if cached is not None:  # a resident row is even cheaper than a join
            self._row_hits += 1
            return int(cached[v])
        self._ensure_labels()
        self._pair_queries += 1
        return _label_join(
            self._label_ranks[u],
            self._label_dists[u],
            self._label_ranks[v],
            self._label_dists[v],
        )

    def distances(self, source: NodeId, targets: Sequence[NodeId]) -> DistArray:
        if len(targets) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        source = int(source)
        cached = self._rows.get(source)
        if cached is not None:
            self._row_hits += 1
            return cached[np.asarray(targets, dtype=np.intp)]
        self._ensure_labels()
        out = np.empty(len(targets), dtype=DIST_DTYPE)
        ru, du = self._label_ranks[source], self._label_dists[source]
        for i, t in enumerate(targets):
            t = int(t)
            if t == source:
                out[i] = 0
                continue
            self._pair_queries += 1
            out[i] = _label_join(
                ru, du, self._label_ranks[t], self._label_dists[t]
            )
        return out

    def pair_distances(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> DistArray:
        if len(pairs) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        out = np.empty(len(pairs), dtype=DIST_DTYPE)
        for i, (u, v) in enumerate(pairs):
            out[i] = self.distance(u, v)
        return out

    def pairwise_distances(self, nodes: Sequence[NodeId]) -> DistArray:
        idx = [int(x) for x in nodes]
        out = np.zeros((len(idx), len(idx)), dtype=DIST_DTYPE)
        for i, u in enumerate(idx):
            for j in range(i + 1, len(idx)):
                d = self.distance(u, idx[j])
                out[i, j] = d
                out[j, i] = d
        return out

    # -- introspection --------------------------------------------------- #

    def stats(self) -> OracleStats:
        base = super().stats()
        return replace(
            base,
            label_entries=self._label_entries,
            pair_queries=self._pair_queries,
            cached_bytes=base.cached_bytes + self._label_bytes(),
        )

    def _label_bytes(self) -> int:
        if self._label_ranks is None:
            return 0
        return sum(
            r.nbytes + d.nbytes
            for r, d in zip(self._label_ranks, self._label_dists)
        )
