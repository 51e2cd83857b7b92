"""Pluggable hop-distance backends: the :class:`DistanceOracle` subsystem.

Every algorithm in the paper is phrased in terms of hop distances in ``G``,
but the algorithms differ wildly in *how much* of the distance structure
they touch: clustering and the neighbor rules only ever look at small
``O(Δ^k)`` balls around nodes, path construction needs full BFS rows from
a handful of clusterheads, and routing/maintenance validation asks for
single pair distances.  The seed implementation served everything from one
dense ``(n, n)`` all-pairs matrix — an O(n²) memory/time wall.

Backend-selection guide
-----------------------
Three interchangeable backends answer the same query interface; pick (or
let ``backend="auto"`` pick) by workload shape:

* ``"dense"`` (:class:`DenseDistanceOracle`) — materializes the full
  all-pairs matrix once, via the batched bit-packed BFS kernel.  O(n²)
  memory; unbeatable query latency.  Right for n up to a few hundred
  (the paper's scales) or when *every* pair will be consulted anyway.
  The auto policy uses it up to :data:`DENSE_AUTO_MAX` nodes.
* ``"lazy"`` (:class:`LazyDistanceOracle`) — keeps only CSR adjacency
  arrays and computes distance **rows** (full single-source BFS) and
  **balls** (depth-limited BFS) on demand, caching both under
  byte-budgeted LRU policies (:class:`ByteBudgetLRU`).  Batched row
  requests (``rows(sources)``) run through
  :func:`multi_source_bfs` — a bit-packed kernel that advances up to
  :data:`BATCH_BITS` sources per sweep, one uint64 frontier word-block
  per node, so warm-up is no longer n sequential BFS runs.  Memory is
  O(m + budgets).  The auto default above :data:`DENSE_AUTO_MAX` nodes;
  right for ball-heavy pipelines (clustering, neighbor rules, CDS
  verification) at any n.
* ``"landmark"`` (:class:`~repro.net.labeling.LandmarkDistanceOracle`) —
  a lazy oracle plus exact pruned landmark labels built from
  degree-ranked roots, :data:`BATCH_BITS` roots at a time; answers pair
  queries by a vectorized label join in O(|label|) per pair without
  touching any row.  Right for **pair-heavy**
  consumers (routing stretch sampling, NC neighbor selection, repair
  validation) once n is large enough that even one BFS row per query
  hurts.  Labels are built lazily on the first pair query.

All backends share the int32 :data:`UNREACHABLE` sentinel, which raises
the previous int16 ceiling of 32766 nodes to :data:`MAX_ORACLE_NODES`
(int32) behind the same API.

Incremental maintenance
-----------------------
Every graph mutation reaches the oracle as one edge delta:
:meth:`Graph.with_edge_delta` for mobility snapshots and link faults,
:meth:`Graph.without_nodes` for failures (every incident edge removed),
and :meth:`Graph.with_nodes` for arrivals (a pad step that appends
isolated nodes, then the attachment edges as a delta).  The child oracle
inherits through one certificate,
:meth:`LazyDistanceOracle.inherit_edge_delta`, which picks one of three
rungs per cached row:

* **verbatim** — a cheap endpoint pre-filter proves the delta cannot
  touch the row (no added edge spanning levels two apart, no removed
  edge spanning adjacent levels); recorded as
  :attr:`~LazyDistanceOracle.delta_certified_sources`;
* **patched** — a batched dynamic-BFS update over every affected row at
  once: the orphan cascade (:meth:`~LazyDistanceOracle._settle_removals`)
  then Dial-style decrease propagation
  (:meth:`~LazyDistanceOracle._relax_rows`), landing as exact full rows;
* **valid prefix** — entries at distance ``<= m``, the distance to the
  nearest changed endpoint, stay exact, so the row is kept as a pending
  partial and completed on demand by resuming BFS from its radius-``m``
  frontier.  Rows that reach a node the delta cuts off (a failure's
  victim) take this rung, as do rows whose patch footprint exceeds
  :data:`DELTA_PATCH_SEED_BUDGET`.

Cached balls survive unless a change reaches their interior; a boundary
node that loses its last parent is dropped from the ball.  Pending
partial rows count toward ``cached_bytes`` and are capped at one row
budget.  ``OracleStats.rows_inherited`` / ``rows_patched`` /
``rows_partial_inherited`` / ``rows_reexpanded`` / ``balls_inherited``
count the carried and resumed entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError
from ..types import DistArray, IndexArray, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from .graph import Graph

__all__ = [
    "UNREACHABLE",
    "MAX_ORACLE_NODES",
    "DENSE_AUTO_MAX",
    "DIST_DTYPE",
    "BATCH_BITS",
    "ByteBudgetLRU",
    "OracleStats",
    "DistanceOracle",
    "DenseDistanceOracle",
    "LazyDistanceOracle",
    "csr_offsets",
    "csr_component_labels",
    "gather_csr_neighbors",
    "multi_source_bfs",
    "build_distance_oracle",
    "resolve_backend",
]

#: Storage dtype for hop distances (raised from the seed's int16).
DIST_DTYPE = np.int32

#: Sentinel hop distance for unreachable pairs (int32 max; larger than any
#: real hop distance for n <= MAX_ORACLE_NODES).
UNREACHABLE: int = int(np.iinfo(DIST_DTYPE).max)

#: Largest node count for which hop distances cannot collide with the
#: :data:`UNREACHABLE` sentinel (a path visits each node at most once, so
#: hop distances are <= n - 1 < 2**31 - 1).  Previously 32766 (int16).
MAX_ORACLE_NODES: int = UNREACHABLE - 1

#: ``backend="auto"`` uses the dense matrix up to this many nodes — at the
#: paper's scales the one-shot batched sweep beats per-source BFS — and
#: the lazy CSR backend above it.
DENSE_AUTO_MAX: int = 512

#: Default byte budget for the lazy backend's cached BFS rows (~16 MiB).
DEFAULT_ROW_CACHE_BYTES: int = 16 << 20

#: Default byte budget for the lazy backend's cached balls (~8 MiB).
DEFAULT_BALL_CACHE_BYTES: int = 8 << 20

#: Sources advanced per bit-packed BFS sweep (one uint64 word of frontier
#: state per node per sweep).
BATCH_BITS: int = 64

#: Edge-delta inheritance triage: a cached row is patched in place (exact
#: dynamic-BFS update) when its delta footprint — orphaned entries plus
#: shortcutting added edges — is at most this many seeds; beyond it, the
#: bit-packed batch kernel recomputes the row faster than pair-level
#: propagation could, so the row falls back to the valid-prefix rung.
DELTA_PATCH_SEED_BUDGET: int = 256


@dataclass(frozen=True)
class OracleStats:
    """Introspection counters for benchmarks and memory assertions.

    Attributes:
        backend: ``"dense"``, ``"lazy"``, ``"landmark"`` or ``"path-cache"``.
        rows_computed: full BFS rows computed so far.
        row_hits: row queries answered from cache.
        balls_computed: depth-limited BFS balls computed so far.
        ball_hits: ball queries answered from cache (or from a cached row).
        cached_bytes: bytes currently held by this oracle's caches (the
            landmark backend's labels included).
        peak_cached_bytes: high-water mark of ``cached_bytes``.
        rows_inherited: rows carried over from a parent oracle by the
            edge-delta inheritance (verbatim or patched).
        balls_inherited: balls carried over (possibly boundary-patched).
        rows_partial_inherited: rows whose valid prefix (entries at
            distance <= that of the nearest changed endpoint) was carried
            over for lazy re-expansion instead of being discarded.
        rows_patched: rows carried across an edge delta by exact
            decrease-propagation patching (removals certified harmless,
            added shortcuts applied in place).
        rows_reexpanded: partial rows completed by resuming BFS from
            their valid frontier on demand.
        batched_sweeps: bit-packed multi-source BFS sweeps run.
        pair_queries: pair distances answered from landmark labels.
        label_entries: total 2-hop label entries held (landmark backend).
        paths_computed: canonical paths computed (path-cache stats).
        path_hits: path queries answered from the path cache.
        lineage_rows_computed / lineage_row_hits /
        lineage_balls_computed / lineage_ball_hits: cumulative totals
            over the oracle's whole inheritance chain (this oracle plus
            every ancestor it inherited caches from).  The per-oracle
            fields above are explicitly snapshot-and-zeroed at each
            inheritance, so these are the conserved quantities: across a
            chained-repair sequence, ``lineage_rows_computed +
            lineage_row_hits`` equals every ``row()``-path query the
            chain ever answered.
        lineage_inherits: inheritance hops behind this oracle (0 for a
            fresh oracle, parent's count + 1 after ``inherit_edge_delta``;
            an arrival that carries caches is two hops, pad then attach).
    """

    backend: str
    rows_computed: int
    row_hits: int
    balls_computed: int
    ball_hits: int
    cached_bytes: int
    peak_cached_bytes: int
    rows_inherited: int = 0
    balls_inherited: int = 0
    rows_partial_inherited: int = 0
    rows_patched: int = 0
    rows_reexpanded: int = 0
    batched_sweeps: int = 0
    pair_queries: int = 0
    label_entries: int = 0
    paths_computed: int = 0
    path_hits: int = 0
    lineage_rows_computed: int = 0
    lineage_row_hits: int = 0
    lineage_balls_computed: int = 0
    lineage_ball_hits: int = 0
    lineage_inherits: int = 0


def _check_size(n: int) -> None:
    if n > MAX_ORACLE_NODES:
        raise InvalidParameterError(
            f"graph has {n} nodes; int32 hop distances support at most "
            f"{MAX_ORACLE_NODES} (a longer path would collide with the "
            "UNREACHABLE sentinel)"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _dedupe_flat(flat: np.ndarray) -> np.ndarray:
    """Sorted unique of a flat int64 key array.

    The explicit sort + run-length mask beats ``np.unique``'s hash path
    on the small-to-mid arrays the incremental sweeps produce.
    """
    if flat.size <= 1:
        return flat
    flat = np.sort(flat)
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


class ByteBudgetLRU:
    """Byte-budgeted LRU mapping — the one cache policy every oracle-layer
    cache shares (lazy rows, lazy balls, canonical paths).

    Entries are evicted least-recently-used-first while the byte budget is
    exceeded, but at least one entry is always retained so a single
    oversized result still caches (matching the row/ball policy the lazy
    oracle shipped with).
    """

    __slots__ = ("budget", "_items", "_nbytes")

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise InvalidParameterError("cache budgets must be >= 0")
        self.budget = budget
        self._items: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._nbytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: object) -> bool:
        return key in self._items

    def get(self, key: object):
        """The cached value (marking it most-recent), or ``None``."""
        entry = self._items.get(key)
        if entry is None:
            return None
        self._items.move_to_end(key)
        return entry[0]

    def put(self, key: object, value: object, nbytes: int) -> None:
        """Insert/replace ``key`` and evict LRU entries past the budget."""
        old = self._items.pop(key, None)
        if old is not None:
            self._nbytes -= old[1]
        self._items[key] = (value, nbytes)
        self._nbytes += nbytes
        while self._nbytes > self.budget and len(self._items) > 1:
            _, (_, old_bytes) = self._items.popitem(last=False)
            self._nbytes -= old_bytes

    def items(self) -> Iterator[tuple[object, object]]:
        """Iterate ``(key, value)`` in LRU-to-MRU order (no touching)."""
        for key, (value, _) in self._items.items():
            yield key, value

    def seed(self, entries: Sequence[tuple[object, object, int]]) -> None:
        """Bulk-insert ``(key, value, nbytes)`` rows, evicting once at the end.

        Used when a derived oracle inherits a parent's caches: thousands of
        entries arrive together, so per-entry eviction bookkeeping is
        wasted work.  Keys must not already be present.
        """
        for key, value, nbytes in entries:
            self._items[key] = (value, nbytes)
            self._nbytes += nbytes
        while self._nbytes > self.budget and len(self._items) > 1:
            _, (_, old_bytes) = self._items.popitem(last=False)
            self._nbytes -= old_bytes


class DistanceOracle:
    """Interface shared by all hop-distance backends.

    Subclasses answer a handful of query shapes; everything else in the
    repo is built from them:

    * :meth:`row` — full BFS distances from one source (int32 vector);
    * :meth:`rows` — stacked rows for several sources (batched kernels);
    * :meth:`distance` — a single pair distance;
    * :meth:`distances` — one source against an explicit target list;
    * :meth:`pair_distances` / :meth:`pairwise_distances` — bulk pair
      queries, grouped so batched backends answer them in few sweeps;
    * :meth:`ball` — the closed ``radius``-ball around a node, as sorted
      node IDs plus their distances (the only query the clustering and
      neighbor-rule hot paths need, and the one a lazy backend can answer
      in output-sensitive time).
    """

    backend: str = "abstract"

    #: Whether single-pair queries are cheap (no BFS row behind them).
    #: Consumers with an output-sensitive alternative (e.g. a depth-limited
    #: ball) should prefer it unless this is True.
    fast_pairs: bool = False

    def __init__(self, graph: "Graph") -> None:
        _check_size(graph.n)
        self._graph = graph

    @property
    def graph(self) -> "Graph":
        """The graph this oracle answers for."""
        return self._graph

    # -- queries ------------------------------------------------------- #

    def row(self, source: NodeId) -> DistArray:
        """Hop distances from ``source`` to all nodes (read-only int32)."""
        raise NotImplementedError

    def cached_row(self, source: NodeId) -> DistArray | None:
        """``row(source)`` if it is already resident, else ``None``.

        A pure cache probe — never triggers a BFS.  Consumers that can
        only *profit* from a row (e.g. the canonical-path inheritance
        check under edge deltas) use this so their cost stays bounded by
        what earlier queries already paid for.
        """
        return None

    def rows(self, sources: Sequence[NodeId]) -> DistArray:
        """Stacked distance rows, shape ``(len(sources), n)``."""
        if len(sources) == 0:
            return np.zeros((0, self._graph.n), dtype=DIST_DTYPE)
        return np.stack([self.row(int(s)) for s in sources])

    def distance(self, u: NodeId, v: NodeId) -> int:
        """Hop distance between ``u`` and ``v`` (UNREACHABLE if none)."""
        return int(self.row(u)[v])

    def distances(self, source: NodeId, targets: Sequence[NodeId]) -> DistArray:
        """Distances from ``source`` to each node in ``targets``."""
        if len(targets) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        return self.row(source)[np.asarray(targets, dtype=np.intp)]

    def pair_distances(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> DistArray:
        """Distances for an arbitrary pair list, grouped by source.

        Pairs sharing a first endpoint are answered from one row, and all
        needed rows are requested together up front so batched backends
        compute them in O(#sources / BATCH_BITS) sweeps; the final
        per-pair extraction is a single fancy-index into the returned
        block, so no Python-level per-pair loop remains.
        """
        if len(pairs) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        arr = np.asarray([(int(u), int(v)) for u, v in pairs], dtype=np.int64)
        sources, inverse = np.unique(arr[:, 0], return_inverse=True)
        # One batched request; index the returned block directly so a
        # small row-cache budget can never force recomputation.
        block = self.rows(sources)
        return block[inverse, arr[:, 1]]

    def pairwise_distances(self, nodes: Sequence[NodeId]) -> DistArray:
        """All-pairs distances among ``nodes``, shape ``(len, len)``.

        Chunked over :data:`BATCH_BITS`-source sweeps so the transient
        footprint stays O(BATCH_BITS · n) even for large node sets.
        """
        idx = np.asarray([int(x) for x in nodes], dtype=np.int64)
        out = np.empty((idx.size, idx.size), dtype=DIST_DTYPE)
        for start in range(0, idx.size, BATCH_BITS):
            chunk = idx[start : start + BATCH_BITS]
            out[start : start + chunk.size] = self.rows(chunk)[:, idx]
        return out

    def ball(self, source: NodeId, radius: int) -> Tuple[IndexArray, DistArray]:
        """Closed ball: nodes at hop distance ``<= radius`` from ``source``.

        Returns ``(nodes, dists)`` — sorted node IDs (including ``source``
        at distance 0) and their distances, both read-only.
        """
        raise NotImplementedError

    def prepare_balls(self, sources: Sequence[NodeId], radius: int) -> int:
        """Warm the ``radius``-ball cache for many sources in one pass.

        A hint, not a query: backends without a ball cache (dense) ignore
        it; the lazy backend batches the missing sources through the
        bit-packed depth-limited kernel so a following per-source
        :meth:`ball` sweep — e.g. the clustering declaration phase — hits
        the cache instead of running one Python-level BFS per node.

        Returns the number of balls actually computed.
        """
        return 0

    def ball_map(self, source: NodeId, radius: int) -> dict[int, int]:
        """:meth:`ball` as a ``node -> distance`` dict (absent = beyond radius)."""
        nodes, dists = self.ball(source, radius)
        return dict(zip(nodes.tolist(), dists.tolist()))

    def eccentricity(self, source: NodeId) -> int:
        """Greatest finite hop distance from ``source``."""
        row = self.row(source)
        finite = row[row < UNREACHABLE]
        return int(finite.max()) if finite.size else 0

    def stats(self) -> OracleStats:
        """Current cache/introspection counters."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# BFS kernels
# --------------------------------------------------------------------- #


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise InvalidParameterError(f"ball radius must be >= 0, got {radius}")


def _ball_from_row(row: np.ndarray, radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """Extract a closed ball from a full distance row.

    The sentinel must never pass the radius test (``radius`` can exceed
    :data:`UNREACHABLE` — unreachable nodes are still outside every ball).
    """
    nodes = np.flatnonzero((row <= radius) & (row < UNREACHABLE))
    return _readonly(nodes), _readonly(row[nodes])


def csr_offsets(
    indptr: IndexArray, nodes: IndexArray
) -> Tuple[IndexArray, IndexArray]:
    """Flat positions of the CSR ranges of ``nodes``: ``(offsets, counts)``.

    The ranges ``[indptr[u], indptr[u+1])`` are concatenated without a
    Python loop — within block ``i``, position ``j`` maps to
    ``ends_i - cum_i + j``.  ``counts`` is the per-node range length (for
    callers that repeat per-node state across the concatenation).
    """
    starts = indptr[nodes]
    ends = indptr[nodes + 1]
    counts = ends - starts
    total = int(counts.sum())
    offsets = np.repeat(ends - np.cumsum(counts), counts) + np.arange(total)
    return offsets, counts


def gather_csr_neighbors(
    indptr: IndexArray, indices: IndexArray, nodes: IndexArray
) -> Tuple[IndexArray, IndexArray]:
    """Concatenated CSR adjacency of ``nodes``: ``(neighbors, counts)``.

    The frontier-expansion primitive every level-synchronous sweep in the
    repo shares (see :func:`csr_offsets`).
    """
    offsets, counts = csr_offsets(indptr, nodes)
    return indices[offsets], counts


def csr_component_labels(
    indptr: IndexArray, indices: IndexArray, mask: np.ndarray | None = None
) -> Tuple[IndexArray, int]:
    """Component labels of the CSR graph, or of its ``mask``-induced subgraph.

    Returns ``(labels, count)``: ``labels[u]`` is the smallest node of
    ``u``'s component (``u`` itself outside ``mask``), and ``count`` is
    the number of components inside the mask (of the whole graph when
    ``mask`` is None).  Isolated nodes keep their own label at no cost.

    Label propagation with pointer jumping: each round hooks the larger
    label of every arc whose endpoints still disagree under the smaller,
    then compresses every node straight to its root.  A round is a few
    array passes over the arcs that still disagree, and a handful of
    rounds settle even a long, thin subgraph such as a backbone's CDS,
    where a BFS would pay one pass per level.  The CSR is symmetric
    (every edge stored as both arcs), so only the ``u < v`` arcs are
    scanned.
    """
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = indices
    kept = src < dst
    if mask is not None:
        kept &= mask[src] & mask[dst]
    src, dst = src[kept], dst[kept]
    labels = np.arange(n, dtype=np.int64)
    while src.size:
        a, b = labels[src], labels[dst]
        live = a != b
        src, dst, a, b = src[live], dst[live], a[live], b[live]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    roots = labels == np.arange(n)
    if mask is not None:
        roots &= mask
    return labels, int(np.count_nonzero(roots))


def _csr_bfs(
    indptr: IndexArray,
    indices: IndexArray,
    n: int,
    source: int,
    max_depth: int | None = None,
) -> Tuple[DistArray, IndexArray]:
    """Single-source BFS over CSR adjacency, vectorized per level.

    Returns ``(dist, visited)``: the int32 distance vector (UNREACHABLE
    where unvisited / beyond ``max_depth``) and the sorted visited node IDs.
    """
    dist = np.full(n, UNREACHABLE, dtype=DIST_DTYPE)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    reached = [frontier]
    level = 0
    while frontier.size and (max_depth is None or level < max_depth):
        level += 1
        nbrs, _ = gather_csr_neighbors(indptr, indices, frontier)
        if nbrs.size == 0:
            break
        nbrs = nbrs[dist[nbrs] == UNREACHABLE]
        if nbrs.size == 0:
            break
        frontier = _dedupe_flat(nbrs)
        dist[frontier] = level
        reached.append(frontier)
    visited = np.sort(np.concatenate(reached)) if len(reached) > 1 else reached[0]
    return dist, visited


def multi_source_bfs(
    indptr: IndexArray,
    indices: IndexArray,
    n: int,
    sources: Sequence[int],
    out: DistArray | None = None,
    max_depth: int | None = None,
) -> DistArray:
    """Bit-packed multi-source BFS: up to B sources advance together.

    Per-node frontier/visited state is a block of ``ceil(B / 64)`` uint64
    words — bit ``b`` set in node ``u``'s block means source ``b``'s BFS
    has reached ``u``.  One level for *all* sources is then a single
    gather of the frontier blocks along the CSR ``indices`` plus one
    ``np.bitwise_or.reduceat`` per-node reduction, instead of B separate
    frontier expansions.  Newly-reached levels are scattered into the
    output matrix by unpacking only the words/bits that actually changed.

    With ``max_depth`` the sweep stops after that many levels, leaving
    farther nodes at :data:`UNREACHABLE` — the batched equivalent of a
    depth-limited ball BFS, used to warm many balls in one pass.

    Returns the ``(len(sources), n)`` int32 distance matrix (written into
    ``out`` when given, which must have that shape).
    """
    num = len(sources)
    if out is None:
        out = np.empty((num, n), dtype=DIST_DTYPE)
    out[:] = UNREACHABLE
    if num == 0 or n == 0:
        return out
    src = np.asarray(sources, dtype=np.int64)
    out[np.arange(num), src] = 0
    words = (num + 63) >> 6
    lanes = np.arange(num)
    bit = np.uint64(1) << (lanes.astype(np.uint64) & np.uint64(63))
    frontier = np.zeros((n, words), dtype=np.uint64)
    # bitwise_or.at (not fancy assignment) so duplicate sources keep both bits
    np.bitwise_or.at(frontier, (src, lanes >> 6), bit)
    visited = frontier.copy()
    m2 = indices.size
    if m2 == 0:
        return out
    degs = np.diff(indptr)
    # Reduce only over nonzero-degree nodes: their indptr starts are
    # exactly the segment boundaries (zero-degree nodes contribute empty
    # segments, which reduceat cannot represent).
    nonzero = np.flatnonzero(degs > 0)
    starts = indptr[nonzero]
    level = 0
    active = np.unique(src)  # nodes currently carrying any frontier bit
    while True:
        level += 1
        if max_depth is not None and level > max_depth:
            return out
        active_edges = int(degs[active].sum())
        if 8 * active_edges < m2:
            # Sparse frontier (well under m/8 incident edges): gather only
            # the frontier nodes' adjacency ranges (the _csr_bfs
            # concatenation trick) and reduce per *target* after a stable
            # sort — output-sensitive, instead of touching all m edges for
            # a handful of frontier nodes.  The threshold leaves wide
            # mid-BFS levels on the cheaper full-pull path.
            targets, counts = gather_csr_neighbors(indptr, indices, active)
            contrib = frontier[np.repeat(active, counts)]
            order = np.argsort(targets, kind="stable")
            targets = targets[order]
            uniq, first = np.unique(targets, return_index=True)
            nxt = np.zeros((n, words), dtype=np.uint64)
            if uniq.size:
                nxt[uniq] = np.bitwise_or.reduceat(
                    contrib[order], first, axis=0
                )
        else:
            nxt = np.zeros((n, words), dtype=np.uint64)
            nxt[nonzero] = np.bitwise_or.reduceat(
                frontier[indices], starts, axis=0
            )
        nxt &= ~visited
        any_new = False
        for w in range(words):
            changed = np.flatnonzero(nxt[:, w])
            if changed.size == 0:
                continue
            any_new = True
            block = nxt[changed, w]
            for b in range(w << 6, min((w << 6) + 64, num)):
                hit = changed[(block >> np.uint64(b & 63)) & np.uint64(1) != 0]
                if hit.size:
                    out[b, hit] = level
        if not any_new:
            return out
        visited |= nxt
        frontier = nxt
        active = np.flatnonzero(nxt.any(axis=1))


# --------------------------------------------------------------------- #
# dense backend
# --------------------------------------------------------------------- #


class DenseDistanceOracle(DistanceOracle):
    """All-pairs matrix backend (the seed behavior), for small ``n``.

    The matrix is materialized once by the bit-packed batched BFS kernel
    (:func:`multi_source_bfs`) in :data:`BATCH_BITS`-source sweeps —
    O(n/64 · (n + m) · diameter) word operations instead of the seed's
    O(n² · diameter) boolean matrix products — but remains O(n²) memory
    and is therefore the auto choice only up to :data:`DENSE_AUTO_MAX`.
    """

    backend = "dense"

    def __init__(self, graph: "Graph") -> None:
        super().__init__(graph)
        self._matrix: np.ndarray | None = None
        self._sweeps = 0

    @property
    def materialized(self) -> bool:
        """Whether the O(n²) matrix has been computed yet."""
        return self._matrix is not None

    @property
    def matrix(self) -> DistArray:
        """The full ``(n, n)`` int32 hop-distance matrix (computed once)."""
        if self._matrix is None:
            matrix, self._sweeps = _dense_all_pairs(self._graph)
            self._matrix = _readonly(matrix)
        return self._matrix

    def row(self, source: NodeId) -> DistArray:
        return self.matrix[source]

    def cached_row(self, source: NodeId) -> DistArray | None:
        return self._matrix[source] if self._matrix is not None else None

    def rows(self, sources: Sequence[NodeId]) -> DistArray:
        if len(sources) == 0:
            return np.zeros((0, self._graph.n), dtype=DIST_DTYPE)
        return self.matrix[np.asarray(sources, dtype=np.intp)]

    def distance(self, u: NodeId, v: NodeId) -> int:
        return int(self.matrix[u, v])

    def pairwise_distances(self, nodes: Sequence[NodeId]) -> DistArray:
        idx = np.asarray([int(x) for x in nodes], dtype=np.intp)
        return self.matrix[np.ix_(idx, idx)]

    def ball(self, source: NodeId, radius: int) -> Tuple[IndexArray, DistArray]:
        _check_radius(radius)
        return _ball_from_row(self.matrix[source], radius)

    def stats(self) -> OracleStats:
        nbytes = self._matrix.nbytes if self._matrix is not None else 0
        n = self._graph.n
        return OracleStats(
            backend=self.backend,
            rows_computed=n if self._matrix is not None else 0,
            row_hits=0,
            balls_computed=0,
            ball_hits=0,
            cached_bytes=nbytes,
            peak_cached_bytes=nbytes,
            batched_sweeps=self._sweeps,
            # Dense oracles never inherit: lineage == own totals.
            lineage_rows_computed=n if self._matrix is not None else 0,
        )


def _locality_order(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> np.ndarray:
    """Order nodes so consecutive batches are graph-local (double sweep).

    Sources batched into one bit-packed sweep share frontier state, so
    the sweep is cheapest when their BFS wavefronts overlap.  Sorting
    nodes lexicographically by hop distance from two mutually far
    landmarks (found by the classic double-sweep heuristic) makes each
    :data:`BATCH_BITS`-node slice spatially compact — measured ~25%
    faster full materialization at n=5000 for ~3 extra BFS of setup.
    """
    d0, _ = _csr_bfs(indptr, indices, n, 0)
    a = int(np.argmax(np.where(d0 < UNREACHABLE, d0, -1)))
    d_a, _ = _csr_bfs(indptr, indices, n, a)
    b = int(np.argmax(np.where(d_a < UNREACHABLE, d_a, -1)))
    d_b, _ = _csr_bfs(indptr, indices, n, b)
    return np.lexsort((np.arange(n), d_b, d_a))


def _dense_all_pairs(graph: "Graph") -> tuple[np.ndarray, int]:
    """All-pairs matrix via batched bit-packed BFS; returns (matrix, sweeps)."""
    n = graph.n
    if n == 0:
        return np.zeros((0, 0), dtype=DIST_DTYPE), 0
    indptr, indices = graph.csr_adjacency
    out = np.empty((n, n), dtype=DIST_DTYPE)
    if n > BATCH_BITS:
        order = _locality_order(indptr, indices, n)
    else:
        order = np.arange(n)
    sweeps = 0
    for start in range(0, n, BATCH_BITS):
        chunk = order[start : min(start + BATCH_BITS, n)]
        out[chunk] = multi_source_bfs(indptr, indices, n, chunk)
        sweeps += 1
    return out, sweeps


# --------------------------------------------------------------------- #
# lazy CSR backend
# --------------------------------------------------------------------- #


class LazyDistanceOracle(DistanceOracle):
    """CSR-backed on-demand BFS backend with LRU row and ball caches.

    Distance rows are single-source BFS sweeps (O(n + m) each, vectorized
    per level over the CSR arrays) — or, for batched :meth:`rows`
    requests, bit-packed :func:`multi_source_bfs` sweeps that advance up
    to :data:`BATCH_BITS` sources at once.  Balls are depth-limited
    sweeps whose cost scales with the ball, not the graph.  Both results
    are cached under independent :class:`ByteBudgetLRU` policies bounded
    by *bytes*, so total memory stays O(m + budget) no matter how many
    queries arrive.

    Args:
        graph: the graph to answer for.
        row_cache_bytes: LRU budget for cached rows (>= one row).
        ball_cache_bytes: LRU budget for cached balls (>= one ball).
    """

    backend = "lazy"

    def __init__(
        self,
        graph: "Graph",
        *,
        row_cache_bytes: int = DEFAULT_ROW_CACHE_BYTES,
        ball_cache_bytes: int = DEFAULT_BALL_CACHE_BYTES,
    ) -> None:
        super().__init__(graph)
        indptr, indices = graph.csr_adjacency
        self._indptr = indptr
        self._indices = indices
        self._rows = ByteBudgetLRU(row_cache_bytes)
        self._balls = ByteBudgetLRU(ball_cache_bytes)
        self._rows_computed = 0
        self._row_hits = 0
        self._balls_computed = 0
        self._ball_hits = 0
        self._rows_inherited = 0
        self._balls_inherited = 0
        self._rows_partial_inherited = 0
        self._rows_patched = 0
        self._rows_reexpanded = 0
        self._batched_sweeps = 0
        # Cumulative (rows_computed, row_hits, balls_computed, ball_hits,
        # inherits) over every ancestor oracle — see _carry_lineage.
        self._lineage = (0, 0, 0, 0, 0)
        self._peak_bytes = 0
        # source -> (stale row, valid-prefix radius): rows a delta
        # invalidated but left salvageable — entries at distance <= radius
        # stay exact — pending lazy re-expansion.
        self._partial_rows: dict[int, tuple[np.ndarray, int]] = {}
        # Sources proven distance-identical by the last edge-delta
        # inheritance (see delta_certified_sources).
        self._delta_certified: frozenset[int] = frozenset()

    # -- caching helpers ----------------------------------------------- #

    def _row_nbytes(self) -> int:
        return max(1, self._graph.n * np.dtype(DIST_DTYPE).itemsize)

    def _cached_bytes(self) -> int:
        """Bytes held: LRU rows and balls plus pending partial rows."""
        partial = len(self._partial_rows) * self._row_nbytes()
        return self._rows.nbytes + self._balls.nbytes + partial

    def _note_peak(self) -> None:
        total = self._cached_bytes()
        if total > self._peak_bytes:
            self._peak_bytes = total

    def _store_row(self, source: int, dist: np.ndarray) -> None:
        self._rows.put(source, dist, dist.nbytes)
        self._partial_rows.pop(source, None)  # an exact row supersedes
        self._note_peak()

    def _store_ball(
        self, key: tuple[int, int], result: tuple[np.ndarray, np.ndarray]
    ) -> None:
        self._balls.put(key, result, result[0].nbytes + result[1].nbytes)
        self._note_peak()

    # -- incremental maintenance --------------------------------------- #

    def _carry_lineage(self, parent: "LazyDistanceOracle") -> None:
        """Carry ``parent``'s cumulative query totals, zero the per-oracle
        counters.

        Inheritance used to leave the child's hit/miss counters at their
        construction-time zeros while ``rows_patched`` accumulated inside
        the inherit call itself — a mix in which a chain of repairs
        silently dropped every ancestor's history (counter-reset drift).
        The contract is now explicit: per-oracle counters describe
        **post-inheritance work only** (snapshot-and-zeroed here), and
        the conserved chain-wide totals live in the ``lineage_*`` stats
        fields, accumulated parent-by-parent.
        """
        base = parent._lineage
        self._lineage = (
            base[0] + parent._rows_computed,
            base[1] + parent._row_hits,
            base[2] + parent._balls_computed,
            base[3] + parent._ball_hits,
            base[4] + 1,
        )
        self._rows_computed = 0
        self._row_hits = 0
        self._balls_computed = 0
        self._ball_hits = 0
        self._rows_patched = 0
        self._rows_reexpanded = 0
        self._batched_sweeps = 0

    def _cap_partial_rows(self) -> None:
        """Bound pending partial rows by one row-budget's worth of bytes.

        Pending partials hold full stale rows outside the LRU budget, so
        they obey the same byte discipline, dropping oldest-first (chained
        parent partials arrive before this delta's fresh ones — the
        staler, the earlier).  Dropped sources recompute from scratch on
        demand.
        """
        cap = max(1, self._rows.budget // self._row_nbytes())
        while len(self._partial_rows) > cap:
            self._partial_rows.pop(next(iter(self._partial_rows)))
        self._rows_partial_inherited = len(self._partial_rows)

    def _row_has_parent(
        self, old_block: np.ndarray, block: np.ndarray,
        rows: np.ndarray, nodes: np.ndarray,
    ) -> np.ndarray:
        """Per ``(row, node)`` pair: does the node keep a BFS parent?

        A parent is a *surviving* child-graph neighbor whose current
        value equals the node's old level minus one (orphaned neighbors
        were already reset to :data:`UNREACHABLE` in ``block`` and can
        never match).  One CSR gather + one segmented any.
        """
        nbrs, counts = gather_csr_neighbors(self._indptr, self._indices, nodes)
        has = np.zeros(rows.size, dtype=bool)
        if nbrs.size == 0:
            return has
        rows_rep = np.repeat(rows, counts)
        target = np.repeat(old_block[rows, nodes] - 1, counts)
        hit = block[rows_rep, nbrs] == target
        nz = np.flatnonzero(counts > 0)
        starts = np.concatenate([[0], np.cumsum(counts)])[nz]
        has[nz] = np.logical_or.reduceat(hit, starts)
        return has

    def _settle_removals(
        self, old_block: np.ndarray, block: np.ndarray, removed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Orphan cascade for the removed edges — the increase half of the
        dynamic BFS batch update, all rows at once.

        A node is *orphaned* when every old shortest path to it died: its
        removed-edge parent was its only neighbor one level closer, or
        every such neighbor was itself orphaned.  Orphans are reset to
        :data:`UNREACHABLE` in ``block`` (in place); every other entry
        keeps its old value, which remains *exact* — a surviving node has
        a surviving parent chain down to the source realizing the old
        distance, and removals can only increase distances.  Orphans get
        their true (possibly larger, possibly infinite) values in the
        subsequent decrease-propagation repair, seeded from the
        survivor/orphan boundary.

        ``old_block`` holds the original values (structure detection must
        see pre-cascade levels); ``block`` is the working copy.  Returns
        the flat ``(rows, nodes)`` orphan pairs.
        """
        num, n = old_block.shape
        orphan_r: list[np.ndarray] = []
        orphan_n: list[np.ndarray] = []
        fr_rows: list[np.ndarray] = []
        fr_nodes: list[np.ndarray] = []
        if removed.size:
            # All (row, deeper-endpoint) candidates of every removed tree
            # edge in one batch; the cascade re-checks any survivor whose
            # later-orphaned neighbor was its counted parent.
            ends = np.concatenate([removed[:, 0], removed[:, 1]])
            others = np.concatenate([removed[:, 1], removed[:, 0]])
            is_child = old_block[:, ends] == old_block[:, others] + 1
            rows0, cols0 = np.nonzero(is_child)
            if rows0.size:
                flat = _dedupe_flat(rows0 * n + ends[cols0])
                cand_r, cand_n = flat // n, flat % n
                has = self._row_has_parent(old_block, block, cand_r, cand_n)
                orph_r0, orph_n0 = cand_r[~has], cand_n[~has]
                if orph_r0.size:
                    block[orph_r0, orph_n0] = UNREACHABLE
                    fr_rows.append(orph_r0)
                    fr_nodes.append(orph_n0)
        while fr_rows:
            rows_arr = np.concatenate(fr_rows)
            nodes_arr = np.concatenate(fr_nodes)
            orphan_r.append(rows_arr)
            orphan_n.append(nodes_arr)
            # Children of the new orphans: neighbors one old level deeper,
            # not yet orphaned themselves.
            nbrs, counts = gather_csr_neighbors(
                self._indptr, self._indices, nodes_arr
            )
            fr_rows, fr_nodes = [], []
            if nbrs.size == 0:
                break
            rows_rep = np.repeat(rows_arr, counts)
            deeper_mask = (
                old_block[rows_rep, nbrs]
                == np.repeat(old_block[rows_arr, nodes_arr], counts) + 1
            ) & (block[rows_rep, nbrs] < UNREACHABLE)
            if not deeper_mask.any():
                break
            flat = _dedupe_flat(rows_rep[deeper_mask] * n + nbrs[deeper_mask])
            cand_r = flat // n
            cand_n = flat % n
            has = self._row_has_parent(old_block, block, cand_r, cand_n)
            orph_r, orph_n = cand_r[~has], cand_n[~has]
            if orph_r.size:
                block[orph_r, orph_n] = UNREACHABLE
                fr_rows.append(orph_r)
                fr_nodes.append(orph_n)
        if not orphan_r:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(orphan_r), np.concatenate(orphan_n)

    def _relax_rows(
        self,
        block: np.ndarray,
        seed_rows: np.ndarray,
        seed_nodes: np.ndarray,
    ) -> np.ndarray:
        """Decrease-propagation repair — the other half of the batch update.

        ``block`` rows satisfy: every finite value is realizable in the
        child graph, and the only *over*-estimates sit at orphaned
        entries (reset to :data:`UNREACHABLE` by
        :meth:`_settle_removals`) and behind added-edge shortcuts.  The
        seeds are settled ``(row, node)`` pairs adjacent to those
        over-estimates; propagating their values through the child CSR
        adjacency until no edge violates ``d[w] <= d[u] + 1`` reaches
        the unique fixed point — the true BFS metric (a
        minimal-counterexample's last hop would cross a relaxed edge).
        New reachability propagates identically; still-unreachable
        orphans simply keep the sentinel.

        All rows advance together Dial-style: frontiers are flat
        ``(row, node)`` pair sets *bucketed by distance value*, popped in
        ascending order, so — exactly as in Dijkstra with unit weights —
        every affected pair is expanded once at its final value, and the
        total cost is O(affected pairs × degree), independent of rows × n.

        Returns a boolean vector marking rows whose values changed here.
        """
        num, n = block.shape
        touched_rows = np.zeros(num, dtype=bool)
        if num == 0 or seed_rows.size == 0:
            return touched_rows
        indptr, indices = self._indptr, self._indices
        buckets: dict[int, list[np.ndarray]] = {}
        seed_vals = block[seed_rows, seed_nodes]
        finite = seed_vals < UNREACHABLE
        flat0 = seed_rows[finite] * n + seed_nodes[finite]
        for level in np.unique(seed_vals[finite]):
            buckets[int(level)] = [flat0[seed_vals[finite] == level]]
        while buckets:
            level = min(buckets)
            flat = _dedupe_flat(np.concatenate(buckets.pop(level)))
            rows_arr = flat // n
            nodes_arr = flat % n
            # Skip pairs that settled at a smaller value since enqueueing.
            cur = block[rows_arr, nodes_arr] == level
            rows_arr, nodes_arr = rows_arr[cur], nodes_arr[cur]
            if rows_arr.size == 0:
                continue
            nbrs, counts = gather_csr_neighbors(indptr, indices, nodes_arr)
            if nbrs.size == 0:
                continue
            rows_rep = np.repeat(rows_arr, counts)
            improve = block[rows_rep, nbrs] > level + 1
            if not improve.any():
                continue
            rr = rows_rep[improve]
            nn = nbrs[improve]
            # Duplicate (row, node) targets all receive the same value,
            # so plain fancy assignment is race-free.
            block[rr, nn] = level + 1
            touched_rows[rr] = True
            buckets.setdefault(int(level) + 1, []).append(rr * n + nn)
        return touched_rows

    def inherit_edge_delta(
        self,
        parent: "LazyDistanceOracle",
        added: Sequence[tuple[int, int]],
        removed: Sequence[tuple[int, int]],
    ) -> None:
        """Seed caches from ``parent`` after an edge delta — the distance
        layer's one inheritance certificate.

        ``added`` / ``removed`` are the changed (normalized) edges, as
        ``(k, 2)`` arrays or pair lists (their order does not matter).
        Every graph mutation arrives here: mobility snapshots and link faults,
        node removals (all incident edges removed) and node arrivals.  An
        arrival first *pads*: this oracle's graph may append isolated
        nodes at IDs ``>= parent.graph.n``, and carried rows are padded
        with :data:`UNREACHABLE` (exact — isolated nodes are unreachable
        and join no ball); the attachment edges follow as a second delta.

        Each cached **row** takes one of three rungs:

        * a cheap endpoint pre-filter carries rows the delta provably
          cannot touch (no added edge spanning levels two apart, no
          removed edge spanning adjacent levels) verbatim and records
          them in :attr:`delta_certified_sources`;
        * the remaining rows land as **full exact** child rows through a
          batched dynamic-BFS update, all rows advancing together through
          flat ``(row, node)`` frontiers: :meth:`_settle_removals` runs
          the *increase* half (the orphan cascade: nodes whose every
          shortest-path parent died reset to the sentinel, every other
          entry provably exact) and :meth:`_relax_rows` the *decrease*
          half (added-edge shortcuts and survivor/orphan boundaries
          propagate to the child's true BFS metric).  Patched rows
          count as ``rows_patched``.  Keeping whole rows is what keeps
          the batched-rows hot paths (leg resolution, bulk pair
          distances) warm under motion, where nearly every row is
          grazed by *some* change;
        * two kinds of row keep only their **valid prefix** instead:
          rows that reach a node the delta cuts off entirely (a node
          failure's victim — such a row is certain to change, so
          patching would copy every row reaching the victim at every
          failure, while churn loops rarely read them back), and rows
          whose patch footprint exceeds :data:`DELTA_PATCH_SEED_BUDGET`
          seeds (the bit-packed kernel recomputes them faster than
          pair-level propagation could).  Entries at distance ``<= m``,
          the distance to the nearest changed endpoint, are exact (a
          shortest path's interior sits strictly closer than its end,
          and an added edge only reaches nodes beyond ``m + 1``), so
          the row is held as a pending partial and :meth:`row`
          completes it by resuming BFS from its radius-``m`` frontier.

        Parent partial rows chain with their radius shrunk to the nearest
        touched node (stale values beyond the radius only certify
        ``> radius``, so they never shrink it).  Cached **balls** carry
        under :meth:`_carried_ball`.
        """
        self._carry_lineage(parent)
        n, old_n = self._graph.n, parent._graph.n

        def fit(row: np.ndarray) -> np.ndarray:
            if row.size == n:
                return row
            out = np.full(n, UNREACHABLE, dtype=DIST_DTYPE)
            out[:old_n] = row
            return _readonly(out)

        add = np.asarray(added, dtype=np.intp).reshape(-1, 2)
        rem = np.asarray(removed, dtype=np.intp).reshape(-1, 2)
        na = add.shape[0]
        touched = np.unique(np.concatenate([add.ravel(), rem.ravel()]))
        # Chained parent partials go first, so _cap_partial_rows'
        # oldest-first eviction drops the stalest entries first.
        for src, (row, radius) in parent._partial_rows.items():
            m = min(radius, int(row[touched].min())) if touched.size else radius
            if m > 0:
                self._partial_rows[src] = (fit(row), m)
        pairs = [(src, fit(row)) for src, row in parent._rows.items()]
        row_seed = []
        certified: set[int] = set()
        affected: list[int] = []
        fallback: list[int] = []
        if pairs and touched.size:
            cols = np.concatenate([add[:, 0], add[:, 1], rem[:, 0], rem[:, 1]])
            vals = np.stack([row[cols] for _, row in pairs]).astype(np.int64)
            nr = rem.shape[0]
            au, av = vals[:, :na], vals[:, na : 2 * na]
            ru, rv = vals[:, 2 * na : 2 * na + nr], vals[:, 2 * na + nr :]
            maybe = (np.minimum(au, av) + 1 < np.maximum(au, av)).any(axis=1)
            maybe |= (np.abs(ru - rv) == 1).any(axis=1)
            # Rows reaching a node the delta cuts off entirely.
            cut_off = np.diff(self._indptr)[cols] == 0
            reach_cut = ((vals < UNREACHABLE) & cut_off).any(axis=1)
            low = vals.min(axis=1)  # distance to the nearest touched node
        else:
            maybe = reach_cut = np.zeros(len(pairs), dtype=bool)
        for i, (src, row) in enumerate(pairs):
            if not maybe[i]:
                certified.add(src)
                row_seed.append((src, row, row.nbytes))
            elif reach_cut[i]:
                fallback.append(i)
            else:
                affected.append(i)
        if affected:
            old_block = np.stack([pairs[i][1] for i in affected]).astype(np.int64)
            block = old_block.copy()
            orph_r, orph_n = self._settle_removals(old_block, block, rem)
            # Added-edge shortcuts per row: |d(s,u) - d(s,v)| >= 2 means
            # the edge genuinely shortens the row somewhere (one side
            # unreachable counts — new reachability).
            gap2 = (
                np.minimum(block[:, add[:, 0]], block[:, add[:, 1]]) + 1
                < np.maximum(block[:, add[:, 0]], block[:, add[:, 1]])
            )
            orphans_per_row = np.bincount(orph_r, minlength=len(affected))
            patch = (
                orphans_per_row + gap2.sum(axis=1)
            ) <= DELTA_PATCH_SEED_BUDGET
            changed = orphans_per_row > 0
            seed_parts: list[np.ndarray] = []
            # Seeds: the orphans' surviving neighbors push repair values
            # across the boundary (orphan-side neighbors still at the
            # sentinel are filtered out by the bucket sweep and re-enter
            # once they gain a value) ...
            keep = patch[orph_r]
            if keep.any():
                o_r, o_n = orph_r[keep], orph_n[keep]
                nbrs, counts = gather_csr_neighbors(
                    self._indptr, self._indices, o_n
                )
                seed_parts.append(np.repeat(o_r, counts) * n + nbrs)
            # ... and each shortcutting added edge's nearer endpoint
            # pushes the decrease into the farther side.
            for j in range(na):
                rows_j = np.flatnonzero(gap2[:, j] & patch)
                if rows_j.size == 0:
                    continue
                u, v = int(add[j, 0]), int(add[j, 1])
                nearer = np.where(block[rows_j, u] <= block[rows_j, v], u, v)
                seed_parts.append(rows_j * n + nearer)
            if seed_parts:
                flat = _dedupe_flat(np.concatenate(seed_parts))
                changed |= self._relax_rows(block, flat // n, flat % n)
            for j, i in enumerate(affected):
                src, row = pairs[i]
                if not patch[j]:
                    fallback.append(i)
                    continue
                if changed[j]:
                    row = _readonly(block[j].astype(DIST_DTYPE))
                    self._rows_patched += 1
                else:
                    certified.add(src)
                row_seed.append((src, row, row.nbytes))
        for i in fallback:
            if low[i] > 0:
                self._partial_rows[pairs[i][0]] = (pairs[i][1], int(low[i]))
        self._delta_certified = frozenset(certified)
        self._cap_partial_rows()
        pairwise = np.concatenate([add.ravel(), rem.ravel()])
        hit = np.zeros(n, dtype=bool)
        hit[touched] = True
        ball_seed = []
        for key, ball in parent._balls.items():
            carried = ball
            if hit[ball[0]].any():
                carried = self._carried_ball(ball, key[1], pairwise, na, rem)
            if carried is not None:
                ball_seed.append(
                    (key, carried, carried[0].nbytes + carried[1].nbytes)
                )
        self._rows.seed(row_seed)
        self._balls.seed(ball_seed)
        self._rows_inherited = len(row_seed)
        self._balls_inherited = len(ball_seed)
        self._note_peak()

    def _carried_ball(
        self,
        ball: tuple[np.ndarray, np.ndarray],
        radius: int,
        ends: np.ndarray,
        na: int,
        rem: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``ball`` (radius ``radius``) as it stands after the delta, or
        ``None`` when it must be recomputed.

        ``ends`` holds the added edges' endpoints (the first ``2 * na``)
        then the removed ones', pairwise.  Non-members count as level
        ``radius + 1``.  The ball survives unless a change reaches its
        interior: an added edge spanning levels two apart (a shortcut, or
        a non-member pulled inside), or a removed edge whose deeper
        endpoint sits strictly inside.  A removed edge into a boundary
        node drops that node unless it keeps a neighbor at level
        ``radius - 1`` — the interior is unchanged, so that neighbor
        still witnesses distance ``radius``.
        """
        nodes, dists = ball
        pos = np.minimum(nodes.searchsorted(ends), nodes.size - 1)
        member = nodes[pos] == ends
        lvl = np.where(member, dists[pos], radius + 1).astype(np.int64)
        au, av = lvl[0 : 2 * na : 2], lvl[1 : 2 * na : 2]
        if (np.abs(au - av) >= 2).any():
            return None
        ru, rv = lvl[2 * na :: 2], lvl[2 * na + 1 :: 2]
        deeper = np.maximum(ru, rv)
        tree = np.abs(ru - rv) == 1
        if (tree & (deeper < radius)).any():
            return None
        on_boundary = tree & (deeper == radius)
        boundary = np.where(ru > rv, rem[:, 0], rem[:, 1])[on_boundary]
        if boundary.size == 0:
            return ball
        keep = np.ones(nodes.size, dtype=bool)
        for c in np.unique(boundary):
            nbrs = self._indices[self._indptr[c] : self._indptr[c + 1]]
            p = np.minimum(nodes.searchsorted(nbrs), nodes.size - 1)
            if not ((nodes[p] == nbrs) & (dists[p] == radius - 1)).any():
                keep[nodes.searchsorted(c)] = False
        return _readonly(nodes[keep]), _readonly(dists[keep])

    @property
    def delta_certified_sources(self) -> frozenset[int]:
        """Sources whose rows the inheritance *proved* unchanged (empty
        unless this oracle was derived by :meth:`inherit_edge_delta`).

        The certificate is stronger than "the row happens to be cached":
        every distance from such a source is identical in parent and
        child.  Introspection/testing surface — canonical-path
        inheritance (:meth:`repro.net.paths.PathOracle.inherit_edge_delta`)
        deliberately re-derives the same fact from the cached row pair
        instead, because its parent oracle may sit several composed
        deltas behind this one.
        """
        return self._delta_certified

    # -- queries ------------------------------------------------------- #

    def _reexpand_row(self, row: np.ndarray, radius: int) -> np.ndarray:
        """Complete a partial row: resume BFS from its valid frontier.

        The prefix (entries at distance <= ``radius``) is exact; entries
        beyond it are reset to :data:`UNREACHABLE` and recomputed by
        continuing the level-synchronous sweep from the nodes at exactly
        ``radius`` (the only prefix nodes an unvisited node can adjoin).
        """
        dist = row.copy()
        dist[dist > radius] = UNREACHABLE
        frontier = np.flatnonzero(dist == radius)
        level = radius
        indptr, indices = self._indptr, self._indices
        while frontier.size:
            level += 1
            nbrs, _ = gather_csr_neighbors(indptr, indices, frontier)
            if nbrs.size == 0:
                break
            nbrs = nbrs[dist[nbrs] == UNREACHABLE]
            if nbrs.size == 0:
                break
            frontier = _dedupe_flat(nbrs)
            dist[frontier] = level
        self._rows_reexpanded += 1
        return dist

    def cached_row(self, source: NodeId) -> DistArray | None:
        return self._rows.get(int(source))

    def row(self, source: NodeId) -> DistArray:
        source = int(source)
        cached = self._rows.get(source)
        if cached is not None:
            self._row_hits += 1
            return cached
        partial = self._partial_rows.get(source)
        if partial is not None:
            dist = self._reexpand_row(*partial)
        else:
            dist, _ = _csr_bfs(
                self._indptr, self._indices, self._graph.n, source
            )
        dist = _readonly(dist)
        self._rows_computed += 1
        self._store_row(source, dist)
        return dist

    def rows(self, sources: Sequence[NodeId]) -> DistArray:
        n = self._graph.n
        srcs = [int(s) for s in sources]
        if not srcs:
            return np.zeros((0, n), dtype=DIST_DTYPE)
        unique = list(dict.fromkeys(srcs))
        missing = [s for s in unique if s not in self._rows]
        # Fresh rows are pinned locally so budget evictions during the
        # batch can never lose a row before it is stacked into the result.
        fresh: dict[int, np.ndarray] = {}
        # Pending partial rows are *not* salvaged here: per-source BFS
        # resumption cannot beat the bit-packed kernel's 64-sources-per-
        # sweep amortization, so batched requests recompute them (and
        # _store_row retires the stale partial).  Partials pay off on the
        # single-row path, where the alternative is one full BFS.
        for start in range(0, len(missing), BATCH_BITS):
            chunk = missing[start : start + BATCH_BITS]
            block = multi_source_bfs(self._indptr, self._indices, n, chunk)
            self._batched_sweeps += 1
            for i, s in enumerate(chunk):
                r = _readonly(block[i].copy())
                fresh[s] = r
                self._rows_computed += 1
                self._store_row(s, r)
        self._row_hits += len(unique) - len(missing)
        out = np.empty((len(srcs), n), dtype=DIST_DTYPE)
        for i, s in enumerate(srcs):
            r = fresh.get(s)
            if r is None:
                r = self._rows.get(s)
            if r is None:  # evicted mid-batch under a tiny budget
                r, _ = _csr_bfs(self._indptr, self._indices, n, s)
            out[i] = r
        return out

    def distance(self, u: NodeId, v: NodeId) -> int:
        # Prefer whichever endpoint's row is already cached.
        u, v = int(u), int(v)
        cached = self._rows.get(u)
        if cached is not None:
            self._row_hits += 1
            return int(cached[v])
        cached = self._rows.get(v)
        if cached is not None:
            self._row_hits += 1
            return int(cached[u])
        return int(self.row(u)[v])

    def prepare_balls(self, sources: Sequence[NodeId], radius: int) -> int:
        """Batch-compute the missing ``radius``-balls among ``sources``.

        Missing sources run through :func:`multi_source_bfs` with
        ``max_depth=radius`` — one bit-packed sweep per
        :data:`BATCH_BITS` sources instead of one Python-level
        depth-limited BFS each — and the extracted balls are stored in
        the ball cache.  Cached sources are skipped; an over-budget
        cache simply evicts LRU-first as usual, so this is always safe
        to call speculatively.
        """
        _check_radius(radius)
        missing = [
            s
            for s in dict.fromkeys(int(s) for s in sources)
            if (s, radius) not in self._balls
        ]
        n = self._graph.n
        for start in range(0, len(missing), BATCH_BITS):
            chunk = missing[start : start + BATCH_BITS]
            block = multi_source_bfs(
                self._indptr, self._indices, n, chunk, max_depth=radius
            )
            self._batched_sweeps += 1
            for i, s in enumerate(chunk):
                result = _ball_from_row(block[i], radius)
                self._balls_computed += 1
                self._store_ball((s, radius), result)
        return len(missing)

    def ball(self, source: NodeId, radius: int) -> Tuple[IndexArray, DistArray]:
        _check_radius(radius)
        source = int(source)
        key = (source, radius)
        cached = self._balls.get(key)
        if cached is not None:
            self._ball_hits += 1
            return cached
        row = self._rows.get(source)
        if row is not None:
            # A cached full row answers any radius without a BFS; store the
            # derived ball so later queries are O(1) cache hits.
            self._ball_hits += 1
            result = _ball_from_row(row, radius)
        else:
            dist, visited = _csr_bfs(
                self._indptr, self._indices, self._graph.n, source, max_depth=radius
            )
            result = (_readonly(visited), _readonly(dist[visited]))
            self._balls_computed += 1
        self._store_ball(key, result)
        return result

    def stats(self) -> OracleStats:
        return OracleStats(
            backend=self.backend,
            rows_computed=self._rows_computed,
            row_hits=self._row_hits,
            balls_computed=self._balls_computed,
            ball_hits=self._ball_hits,
            cached_bytes=self._cached_bytes(),
            peak_cached_bytes=self._peak_bytes,
            rows_inherited=self._rows_inherited,
            balls_inherited=self._balls_inherited,
            rows_partial_inherited=self._rows_partial_inherited,
            rows_patched=self._rows_patched,
            rows_reexpanded=self._rows_reexpanded,
            batched_sweeps=self._batched_sweeps,
            lineage_rows_computed=self._lineage[0] + self._rows_computed,
            lineage_row_hits=self._lineage[1] + self._row_hits,
            lineage_balls_computed=self._lineage[2] + self._balls_computed,
            lineage_ball_hits=self._lineage[3] + self._ball_hits,
            lineage_inherits=self._lineage[4],
        )


# --------------------------------------------------------------------- #
# factory
# --------------------------------------------------------------------- #

_BACKENDS = ("auto", "dense", "lazy", "landmark")


def resolve_backend(backend: str | None, n: int) -> str:
    """Resolve ``backend`` (``None``/"auto"/a concrete name) to a concrete name."""
    name = backend or "auto"
    if name not in _BACKENDS:
        raise InvalidParameterError(
            f"unknown distance backend {backend!r}; known: {list(_BACKENDS)}"
        )
    if name == "auto":
        return "dense" if n <= DENSE_AUTO_MAX else "lazy"
    return name


def build_distance_oracle(
    graph: "Graph", backend: str | None = None, **kwargs
) -> DistanceOracle:
    """Build a distance oracle for ``graph``.

    Args:
        graph: the network graph.
        backend: ``"dense"``, ``"lazy"``, ``"landmark"``, or
            ``"auto"``/``None`` (dense up to :data:`DENSE_AUTO_MAX` nodes,
            lazy above).  See the module docstring for the selection guide.
        **kwargs: backend-specific options (lazy/landmark:
            ``row_cache_bytes``, ``ball_cache_bytes``).
    """
    name = resolve_backend(backend, graph.n)
    if name == "dense":
        if kwargs:
            raise InvalidParameterError(
                f"dense backend takes no options, got {sorted(kwargs)}"
            )
        return DenseDistanceOracle(graph)
    if name == "landmark":
        from .labeling import LandmarkDistanceOracle

        return LandmarkDistanceOracle(graph, **kwargs)
    return LazyDistanceOracle(graph, **kwargs)
