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
prove a distance ``<= d``.  The result is the *canonical* labeling:
``v`` carries ``root`` exactly when no higher-ranked vertex lies on any
shortest root–``v`` path.  The first ~O(√n) degree-ranked roots
contribute nearly all label entries on unit-disk-style graphs; later
roots' BFS prune almost immediately.  Because every vertex is processed,
the resulting labels are **exact** for all pairs (same-component queries
return the true hop distance, cross-component queries return
:data:`~repro.net.oracle.UNREACHABLE`), so the backend is observationally
identical to ``lazy`` — the property tests enforce this.

Construction (:func:`build_pruned_labels`) runs the roots in batches of
:data:`~repro.net.oracle.BATCH_BITS`: one batch's pruned BFSs advance
together, level by level, on arrays of ``(root, node)`` pairs, pruned
against the earlier batches' labels through a ``(BATCH_BITS, n + 1)``
hub-distance table, while a batch's earlier roots shade the entries
sequential PLL would have pruned for them.  The labels are identical,
entry for entry, to the one-root-at-a-time construction, while the
numpy work is issued once per batch level instead of once per root
level; memory is O(n · max label length) for the padded label arrays
plus O(BATCH_BITS · n) scratch.

Queries never materialize a BFS row.  Every pair API — ``distance``,
``distances``, ``pair_distances``, ``pairwise_distances`` — first probes
the resident-row cache once per distinct source, then answers all
remaining pairs in one vectorized join through the same kind of
hub-distance table (:func:`_join_labels`).  Ball and row queries fall
back to the inherited lazy CSR machinery, so the backend is a drop-in
for every consumer.
Labels are built lazily on the first pair query.

Every graph mutation — failure, motion or arrival — reaches the oracle
as an edge delta (:meth:`Graph.with_edge_delta`), and the derived oracle
is constructed label-cold: a label certifies arbitrary pairs, so no
per-pair validity rule survives a delta cheaply.  Cached rows and balls
still arrive through :meth:`LazyDistanceOracle.inherit_edge_delta`, and
the pair APIs prefer a resident row over a label join, so the inherited
cache keeps answering most pair queries until the labels rebuild lazily
on the next one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError
from ..obs import counter as obs_counter
from ..obs import span
from ..types import DistArray, IndexArray, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from .graph import Graph
from .oracle import (
    BATCH_BITS,
    DIST_DTYPE,
    UNREACHABLE,
    LazyDistanceOracle,
    OracleStats,
    csr_offsets,
    gather_csr_neighbors,
)

__all__ = ["LandmarkDistanceOracle", "build_pruned_labels"]

#: "No certificate" in the batched build's hub table and label padding.
#: Twice it still fits in ``DIST_DTYPE``, so a prune check's
#: ``hub + label`` sum never wraps; every real distance (< n) stays
#: below it, which caps the graph size the build accepts.
_HUB_INF: int = (UNREACHABLE - 1) // 2

#: Labels as CSR ``(ptr, hubs, dists, order)``: node ``u``'s hub ranks
#: are ``hubs[ptr[u]:ptr[u+1]]`` (increasing, int64), its distances the
#: same slice of ``dists``; ``order`` maps rank -> node.
_LabelCSR = Tuple[IndexArray, IndexArray, DistArray, IndexArray]


def _root_order(indptr: IndexArray, n: int) -> IndexArray:
    """Root processing order: decreasing degree, ties by increasing ID."""
    degrees = np.diff(indptr)
    return np.lexsort((np.arange(n), -degrees)).astype(np.int64)


def _pruned_label_csr(
    indptr: IndexArray, indices: IndexArray, n: int
) -> _LabelCSR:
    """The batched PLL build, labels as CSR (see :data:`_LabelCSR`).

    :func:`build_pruned_labels` documents the construction.
    """
    if n > _HUB_INF:
        raise InvalidParameterError(
            f"graph has {n} nodes; landmark labels support at most "
            f"{_HUB_INF} (the batched build's int32 sentinel sums)"
        )
    order = _root_order(indptr, n)
    inf = _HUB_INF
    # Padded per-node labels.  A pad points at hub column n, which only
    # ever holds inf, with distance inf: it certifies nothing.
    cap = 8
    lab_rank = np.full((n, cap), n, dtype=np.int32)
    lab_dist = np.full((n, cap), inf, dtype=DIST_DTYPE)
    lab_len = np.zeros(n, dtype=np.int64)
    width = n + 1
    # hub[lane * width + h]: the lane's root's distance to hub rank h.
    hub = np.full(BATCH_BITS * width, inf, dtype=DIST_DTYPE)
    seen = np.zeros(BATCH_BITS * n, dtype=bool)  # keyed lane * n + node
    lane_of = np.full(n, BATCH_BITS, dtype=np.int64)  # a root's batch lane
    cell_budget = BATCH_BITS * max(n, 1)
    tentative = kept = 0
    for base in range(0, n, BATCH_BITS):
        roots = order[base : base + BATCH_BITS]
        lanes = np.arange(roots.size, dtype=np.int64)
        lane_of[roots] = lanes
        w = int(lab_len[roots].max())
        hub_keys = (lanes * width)[:, None] + lab_rank[roots, :w]
        hub[hub_keys] = lab_dist[roots, :w]
        fi, fv = lanes, roots  # frontier (lane, node) pairs
        shaded = np.zeros(roots.size, dtype=bool)
        keys = fi * n + fv
        seen[keys] = True
        touched = [keys]
        out_lane, out_node, out_depth = [], [], []
        depth = 0
        while True:
            # --- prune against earlier batches, whole level at once ---- #
            # Clipped to the frontier's longest label, and chunked so
            # the gathered block stays O(BATCH_BITS * n) cells.
            w = int(lab_len[fv].max())
            if w:
                keep = np.empty(fi.size, dtype=bool)
                step = max(1, cell_budget // w)
                for lo in range(0, fi.size, step):
                    ci, cv = fi[lo : lo + step], fv[lo : lo + step]
                    via = hub[(ci * width)[:, None] + lab_rank[cv, :w]]
                    via += lab_dist[cv, :w]
                    keep[lo : lo + step] = via.min(axis=1) > depth
                fi, fv, shaded = fi[keep], fv[keep], shaded[keep]
                if fi.size == 0:
                    break
            tentative += fi.size
            # --- in-batch cleanup: an earlier root of this batch on a
            # shortest root-v path (v itself included) shades the pair.
            shaded |= lane_of[fv] < fi
            label = ~shaded
            out_lane.append(fi[label])
            out_node.append(fv[label])
            out_depth.append(np.full(int(label.sum()), depth, DIST_DTYPE))
            # --- expand every unpruned pair, shaded or not ------------- #
            nbrs, counts = gather_csr_neighbors(indptr, indices, fv)
            cand = np.repeat(fi * n, counts) + nbrs
            fresh = ~seen[cand]
            if not fresh.any():
                break
            # key * 2 + "unshaded": after the sort each key's first copy
            # carries the OR of its shortest-path parents' shade bits.
            tagged = cand[fresh] * 2 + ~np.repeat(shaded, counts)[fresh]
            tagged.sort()
            first = np.empty(tagged.size, dtype=bool)
            first[0] = True
            np.not_equal(tagged[1:] >> 1, tagged[:-1] >> 1, out=first[1:])
            tagged = tagged[first]
            keys = tagged >> 1
            shaded = (tagged & 1) == 0
            seen[keys] = True
            touched.append(keys)
            fi, fv = np.divmod(keys, n)
            depth += 1
        seen[np.concatenate(touched)] = False
        hub[hub_keys] = inf
        lane_of[roots] = BATCH_BITS
        # --- append the batch's entries, rank order within each node -- #
        lane = np.concatenate(out_lane)
        node = np.concatenate(out_node)
        dist = np.concatenate(out_depth)
        kept += lane.size
        by_node = np.lexsort((lane, node))
        lane, node, dist = lane[by_node], node[by_node], dist[by_node]
        starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        runs = np.diff(np.r_[starts, node.size])
        slot = lab_len[node] + np.arange(node.size) - np.repeat(starts, runs)
        need = int(slot.max()) + 1
        if need > cap:
            grow = ((0, 0), (0, max(cap, need - cap)))  # at least double
            lab_rank = np.pad(lab_rank, grow, constant_values=n)
            lab_dist = np.pad(lab_dist, grow, constant_values=inf)
            cap = lab_rank.shape[1]
        lab_rank[node, slot] = base + lane
        lab_dist[node, slot] = dist
        lab_len[node[starts]] += runs
    obs_counter("labels.tentative").add(tentative)
    obs_counter("labels.dropped_in_batch").add(tentative - kept)
    filled = np.arange(cap) < lab_len[:, None]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lab_len, out=ptr[1:])
    return ptr, lab_rank[filled].astype(np.int64), lab_dist[filled], order


def build_pruned_labels(
    indptr: IndexArray, indices: IndexArray, n: int
) -> tuple[list[IndexArray], list[DistArray], IndexArray]:
    """Build exact 2-hop labels by pruned BFS from degree-ranked roots.

    Returns ``(label_ranks, label_dists, order)``: per-node sorted arrays
    of hub *ranks* (int64) and the matching ``DIST_DTYPE`` hop
    distances, plus the rank -> node ordering (``order[0]`` is the
    highest-degree landmark).

    Roots run in batches of :data:`~repro.net.oracle.BATCH_BITS`
    consecutive ranks.  A batch's pruned BFSs advance together, level by
    level, on arrays of ``(lane, node)`` pairs:

    * **Prune** against the labels of *earlier batches* only.  The
      batch's roots' labels are spread into a ``(BATCH_BITS, n + 1)``
      hub-distance table, so one level's PLL check — "can the labels
      already certify ``d(root, v) <= depth``?" — is one gather of hub
      distances through the frontier's padded label rows, an add and a
      row-min.  A pair that survives sits at its true distance, and no
      earlier-batch vertex lies on any shortest root–``v`` path.
    * **Clean up** inside the batch.  Sequential PLL would also have
      pruned ``(root, v)`` when an earlier root ``b`` of the *same* batch
      certifies ``d(root, b) + d(b, v) <= depth``, i.e. lies on a
      shortest root–``v`` path.  The survivors' shortest-path DAG
      contains every such path, so the BFS carries that fact as one
      *shade* bit per pair: a pair is shaded when its node is an earlier
      root of the batch or any shortest-path parent is shaded.  Shaded
      pairs keep expanding (their descendants' status depends on them)
      but are not labeled.

    An unshaded survivor is exactly a pair whose root outranks every
    other vertex on every shortest root–``v`` path — the canonical
    labeling sequential PLL produces — so the result equals the
    one-root-at-a-time reference (:func:`_build_pruned_labels_reference`,
    kept for the equivalence tests) array for array.  The batch's labels
    are appended only after the batch, in rank order per node.  Inside
    a ``labels`` span the build publishes ``labels.tentative`` (pairs
    that survived the prune) and ``labels.dropped_in_batch`` (the shaded
    ones) — the work batching spends beyond sequential PLL.
    """
    ptr, hubs, dists, order = _pruned_label_csr(indptr, indices, n)
    if n == 0:
        return [], [], order
    cuts = ptr[1:-1]
    return np.split(hubs, cuts), np.split(dists, cuts), order


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


def _join_labels(
    ptr: IndexArray,
    hubs: IndexArray,
    dists: DistArray,
    us: IndexArray,
    vs: IndexArray,
) -> DistArray:
    """``min d(u, hub) + d(hub, v)`` over shared hubs, for every pair.

    The construction's hub-table lookup, applied to queries: pairs are
    grouped by source, up to :data:`BATCH_BITS` sources' labels are
    spread into a ``(lanes, n + 1)`` hub-distance table, and every
    pair's ``v`` label is then one gather through its source's lane, an
    add, and a segmented min.  A pair with no shared hub (different
    components) gets :data:`UNREACHABLE`.  Chunks also cap the gathered
    ``v`` entries at O(:data:`BATCH_BITS` · n).
    """
    n = ptr.size - 1
    width = n + 1
    order = np.argsort(us, kind="stable")
    us, vs = us[order], vs[order]
    first = np.empty(us.size, dtype=bool)
    first[0] = True
    np.not_equal(us[1:], us[:-1], out=first[1:])
    sources = us[first]
    source = np.cumsum(first) - 1  # each pair's index into ``sources``
    table = np.full(
        min(sources.size, BATCH_BITS) * width, _HUB_INF, dtype=DIST_DTYPE
    )
    sizes = ptr[vs + 1] - ptr[vs]
    group = source // BATCH_BITS
    part = (np.cumsum(sizes) - sizes) // (BATCH_BITS * width)
    cut = np.flatnonzero((group[1:] != group[:-1]) | (part[1:] != part[:-1]))
    bounds = [0, *(cut + 1).tolist(), us.size]
    out = np.empty(us.size, dtype=DIST_DTYPE)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s0, s1 = int(source[lo]), int(source[hi - 1]) + 1
        at_u, count_u = csr_offsets(ptr, sources[s0:s1])
        fill = np.repeat(np.arange(s1 - s0) * width, count_u) + hubs[at_u]
        table[fill] = dists[at_u]
        at_v, count_v = csr_offsets(ptr, vs[lo:hi])
        lane = np.repeat((source[lo:hi] - s0) * width, count_v)
        via = table[lane + hubs[at_v]] + dists[at_v]
        # every label holds its own node, so no pair's segment is empty
        out[order[lo:hi]] = np.minimum.reduceat(via, np.cumsum(count_v) - count_v)
        table[fill] = _HUB_INF
    out[out >= _HUB_INF] = UNREACHABLE
    return out


class LandmarkDistanceOracle(LazyDistanceOracle):
    """Lazy CSR oracle plus exact pruned landmark labels for pair queries.

    ``distance`` / ``distances`` / ``pair_distances`` /
    ``pairwise_distances`` are answered from a resident row when one is
    cached, else from 2-hop labels in O(|label|) per pair; ``row`` and
    ``ball`` fall back to the inherited lazy CSR machinery.  Labels are
    built on the first pair query and shared for the oracle's lifetime.
    """

    backend = "landmark"
    fast_pairs = True  # label joins, never a BFS row

    def __init__(self, graph: "Graph", **kwargs: object) -> None:
        super().__init__(graph, **kwargs)
        self._labels: _LabelCSR | None = None
        self._pair_queries = 0

    # -- labels --------------------------------------------------------- #

    @property
    def labels_built(self) -> bool:
        """Whether the 2-hop labels have been constructed yet."""
        return self._labels is not None

    def _ensure_labels(self) -> _LabelCSR:
        if self._labels is None:
            with span("labels", n=self._graph.n):
                self._labels = _pruned_label_csr(
                    self._indptr, self._indices, self._graph.n
                )
                obs_counter("oracle.labels_built").add()
            self._note_peak()
        return self._labels

    def label(self, u: NodeId) -> tuple[IndexArray, DistArray]:
        """``u``'s 2-hop label as ``(hub_ranks, hub_dists)`` arrays."""
        ptr, hubs, dists, _ = self._ensure_labels()
        lo, hi = int(ptr[int(u)]), int(ptr[int(u) + 1])
        return hubs[lo:hi], dists[lo:hi]

    def landmarks(self, count: int) -> tuple[int, ...]:
        """The ``count`` highest-ranked landmark node IDs (degree order)."""
        order = self._ensure_labels()[3]
        return tuple(int(x) for x in order[:count])

    # -- pair queries ---------------------------------------------------- #

    def _label_distances(self, us: IndexArray, vs: IndexArray) -> DistArray:
        """Label joins for pairs no resident row answered (counted)."""
        if us.size == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        ptr, hubs, dists, _ = self._ensure_labels()
        self._pair_queries += us.size
        return _join_labels(ptr, hubs, dists, us, vs)

    def distance(self, u: NodeId, v: NodeId) -> int:
        return int(self.pair_distances(((u, v),))[0])

    def distances(self, source: NodeId, targets: Sequence[NodeId]) -> DistArray:
        if len(targets) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        source = int(source)
        targets = np.asarray(targets, dtype=np.int64)
        cached = self._rows.get(source)
        if cached is not None:  # one resident row answers every target
            self._row_hits += 1
            return cached[targets]
        out = np.zeros(targets.size, dtype=DIST_DTYPE)
        other = targets != source
        out[other] = self._label_distances(
            np.full(int(other.sum()), source, dtype=np.int64), targets[other]
        )
        return out

    def pair_distances(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> DistArray:
        if len(pairs) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        out = np.zeros(len(arr), dtype=DIST_DTYPE)
        live = np.flatnonzero(arr[:, 0] != arr[:, 1])
        if live.size == 0:
            return out
        # Pairs grouped into runs by source, query order kept inside each
        # run.  Each distinct resident source is touched once, in the
        # order of its last use, so hit counts and the row LRU order are
        # those of pair-at-a-time queries.
        by_src = live[np.argsort(arr[live, 0], kind="stable")]
        src, dst = arr[by_src, 0], arr[by_src, 1]
        starts = np.flatnonzero(np.concatenate([[True], src[1:] != src[:-1]]))
        ends = np.append(starts[1:], src.size)
        rows = self._rows
        hot = np.array([s in rows for s in src[starts].tolist()], dtype=bool)
        runs = np.flatnonzero(hot)
        runs = runs[np.argsort(by_src[ends[runs] - 1])]
        lo, hi = starts[runs], ends[runs]
        for s, a, b in zip(src[lo].tolist(), lo.tolist(), hi.tolist()):
            out[by_src[a:b]] = rows.get(s)[dst[a:b]]  # beats a label join
        self._row_hits += int((hi - lo).sum())
        cold = np.repeat(~hot, ends - starts)
        out[by_src[cold]] = self._label_distances(src[cold], dst[cold])
        return out

    def pairwise_distances(self, nodes: Sequence[NodeId]) -> DistArray:
        idx = np.asarray([int(x) for x in nodes], dtype=np.int64)
        out = np.zeros((idx.size, idx.size), dtype=DIST_DTYPE)
        iu, ju = np.triu_indices(idx.size, 1)
        upper = self.pair_distances(np.stack([idx[iu], idx[ju]], axis=1))
        out[iu, ju] = upper
        out[ju, iu] = upper
        return out

    # -- introspection --------------------------------------------------- #

    def _cached_bytes(self) -> int:
        return super()._cached_bytes() + self._label_bytes()

    def stats(self) -> OracleStats:
        hubs = None if self._labels is None else self._labels[1]
        return replace(
            super().stats(),
            label_entries=0 if hubs is None else int(hubs.size),
            pair_queries=self._pair_queries,
        )

    def _label_bytes(self) -> int:
        if self._labels is None:
            return 0
        _, hubs, dists, _ = self._labels
        return hubs.nbytes + dists.nbytes
