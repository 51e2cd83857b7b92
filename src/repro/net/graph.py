"""Compact immutable undirected graph with pluggable hop-distance backends.

Every algorithm in the paper is defined in terms of *hop distances* in the
original network ``G``: k-hop neighborhoods for clustering, 2k+1-hop
neighborhoods for neighbor-clusterhead discovery, and hop-count "virtual
distances" between clusterheads.  :class:`Graph` answers all of those
queries through a :class:`~repro.net.oracle.DistanceOracle`, of which three
interchangeable backends exist (see :mod:`repro.net.oracle` for the full
selection guide):

* **dense** — the all-pairs ``(n, n)`` int32 matrix materialized by the
  bit-packed batched BFS kernel; fastest at the paper's scales (N <= a few
  hundred) and the default up to :data:`~repro.net.oracle.DENSE_AUTO_MAX`
  nodes.
* **lazy** — CSR adjacency arrays plus on-demand per-source BFS rows
  (batched through the same kernel) and depth-limited balls under
  byte-budgeted LRU caches; sub-quadratic memory, the default for larger
  graphs.
* **landmark** — the lazy machinery plus exact pruned landmark labels
  (:mod:`repro.net.labeling`); pair distances in O(|label|) for
  pair-heavy consumers.

Call :meth:`Graph.use_distance_backend` to force a backend;
:attr:`Graph.hop_distances` remains as the small-n/compatibility API and
always materializes the dense matrix.

Design notes
------------
* Nodes are dense integers ``0..n-1``; the paper's "lowest ID" priority is
  the natural integer order on these.
* One representation: the CSR adjacency ``(indptr, indices)`` with
  sorted rows, plus the lexicographically sorted ``(m, 2)`` int64
  :attr:`Graph.edge_array`.  The constructor builds both in a few numpy
  passes.  :attr:`Graph.edges` (a tuple of Python-int pairs) and
  :meth:`Graph.neighbors` (a tuple of one CSR row) are views derived on
  demand, so nothing can fall out of step with the arrays.
* The graph is immutable, and every mutation produces a *new* graph
  through one path, :meth:`Graph.with_edge_delta`: the sorted edge keys
  and the sorted CSR arc keys are spliced at the changed positions (one
  ``searchsorted`` each, no re-sort), and lazy-family oracle caches
  inherit through
  :meth:`~repro.net.oracle.LazyDistanceOracle.inherit_edge_delta`.
  Oracles are caches over the immutable structure, so backend switches
  are safe.
* Every connectivity query (:meth:`Graph.is_connected`,
  :meth:`Graph.connected_components`, :meth:`Graph.component_labels`)
  is one pass of :func:`~repro.net.oracle.csr_component_labels`; none
  touches the distance oracles.
* Node failure (§3.3 of the paper) is the delta that drops every incident
  edge: :meth:`Graph.without_nodes` keeps the original node numbering and
  leaves the failed nodes isolated, so results remain comparable.
  Mobility (nodes that move rather than disappear) is a snapshot diff.
* Node arrivals (the long-lived service's growth path) take the next IDs:
  :meth:`Graph.with_nodes` pads the graph with isolated nodes (empty CSR
  rows, cached rows padded with :data:`UNREACHABLE`), then adds the
  attachment edges as an ordinary delta.
* All backends use the int32 :data:`UNREACHABLE` sentinel and refuse
  graphs beyond :data:`~repro.net.oracle.MAX_ORACLE_NODES` nodes rather
  than silently overflowing hop distances (the seed's int16 ceiling of
  32766 nodes is gone).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import DisconnectedGraphError, InvalidParameterError
from ..types import DistArray, Edge, IndexArray, NodeId
from .oracle import (
    UNREACHABLE,
    DistanceOracle,
    _dedupe_flat,
    _readonly,
    build_distance_oracle,
    csr_component_labels,
    gather_csr_neighbors,
    resolve_backend,
)

__all__ = ["Graph", "UNREACHABLE"]


def _as_pairs(edges: Iterable[tuple[NodeId, NodeId]]) -> np.ndarray:
    """``edges`` (an ``(m, 2)`` array or any iterable of pairs) as int64."""
    pairs = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
    )
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParameterError(
            f"edges must be (u, v) pairs, got shape {pairs.shape}"
        )
    return pairs


def _edge_keys(edges: Iterable[tuple[NodeId, NodeId]], n: int) -> np.ndarray:
    """Sorted distinct keys ``u * n + v`` (``u < v``) of validated edges."""
    pairs = _as_pairs(edges)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        u = int(lo[loops[0]])
        raise ValueError(f"self-loop edge ({u}, {u}) is not allowed")
    bad = np.flatnonzero((lo < 0) | (hi >= n))
    if bad.size:
        e = (int(lo[bad[0]]), int(hi[bad[0]]))
        raise InvalidParameterError(f"edge {e} out of range for n={n}")
    return _dedupe_flat(lo * n + hi)


def _arc_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Sorted CSR arc keys (both directions) of the edge ``keys``."""
    lo, hi = np.divmod(keys, n)
    return np.sort(np.concatenate([keys, hi * n + lo]))


def _member(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``query`` keys occur in the sorted ``keys``."""
    if keys.size == 0:
        return np.zeros(query.size, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[pos] == query


def _splice(keys: np.ndarray, drop: np.ndarray, put: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` minus the present ``drop`` keys plus the absent
    ``put`` keys: two ``searchsorted`` joins and contiguous copies."""
    kept = np.delete(keys, np.searchsorted(keys, drop))
    return np.insert(kept, np.searchsorted(kept, put), put)


class Graph:
    """Immutable undirected graph on nodes ``0..n-1``.

    Args:
        n: number of nodes.
        edges: ``(u, v)`` pairs, as an ``(m, 2)`` integer array or any
            iterable; order and duplicates are normalized away.
            Self-loops raise :class:`ValueError`.

    The constructor is O(n + m log m) numpy work; all hop-distance
    machinery is lazy and cached.
    """

    __slots__ = (
        "_n", "_indptr", "_indices", "_edge_array", "_oracles", "_backend",
        "__dict__",
    )

    def __init__(self, n: int, edges: Iterable[tuple[NodeId, NodeId]] = ()) -> None:
        if n < 0:
            raise InvalidParameterError(f"node count must be >= 0, got {n}")
        n = int(n)
        keys = _edge_keys(edges, n)
        self._install(n, keys, _arc_keys(keys, n), None)

    def _install(
        self, n: int, keys: np.ndarray, arcs: np.ndarray, backend: str | None
    ) -> None:
        """Set the arrays from sorted edge keys and sorted arc keys."""
        self._n = n
        self._edge_array = _readonly(np.stack(np.divmod(keys, n), axis=1))
        self._indptr = _readonly(np.searchsorted(arcs, np.arange(n + 1) * n))
        self._indices = _readonly(arcs % n if n else arcs)
        self._oracles: dict[str, DistanceOracle] = {}
        self._backend = backend  # None = auto policy

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._edge_array.shape[0]

    @property
    def edge_array(self) -> IndexArray:
        """Read-only ``(m, 2)`` int64 edges, ``u < v``, sorted by ``(u, v)``."""
        return self._edge_array

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted tuple of normalized edges (derived from :attr:`edge_array`)."""
        lo, hi = self._edge_array.T
        return tuple(zip(lo.tolist(), hi.tolist()))

    def nodes(self) -> range:
        """Iterable over all node IDs."""
        return range(self._n)

    def neighbors(self, u: NodeId) -> tuple[int, ...]:
        """Sorted tuple of ``u``'s 1-hop neighbors (one CSR row)."""
        return tuple(self._indices[self._indptr[u] : self._indptr[u + 1]].tolist())

    def degree(self, u: NodeId) -> int:
        """Number of 1-hop neighbors of ``u``."""
        return int(self._indptr[u + 1] - self._indptr[u])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``{u, v}`` is an edge (False for u == v)."""
        if u == v:
            return False
        row = self._indices[self._indptr[u] : self._indptr[u + 1]]
        i = int(row.searchsorted(v))
        return i < row.size and int(row[i]) == v

    def average_degree(self) -> float:
        """Mean node degree, ``2m / n`` (0.0 for the empty graph)."""
        return 2.0 * self.m / self._n if self._n else 0.0

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(
            self._edge_array, other._edge_array
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edge_array.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.m})"

    # ------------------------------------------------------------------ #
    # distance backends
    # ------------------------------------------------------------------ #

    @property
    def csr_adjacency(self) -> tuple[IndexArray, IndexArray]:
        """CSR adjacency arrays ``(indptr, indices)`` (read-only).

        ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s sorted neighbors.
        This is the representation the BFS kernels run on; it costs
        O(n + m) memory regardless of graph size.
        """
        return self._indptr, self._indices

    def distance_oracle(self, backend: str | None = None) -> DistanceOracle:
        """The distance oracle for ``backend`` (created once per backend).

        ``backend=None`` uses the graph's current default: the backend set
        via :meth:`use_distance_backend`, else the auto policy (dense for
        small n, lazy above :data:`~repro.net.oracle.DENSE_AUTO_MAX`).
        """
        name = resolve_backend(backend or self._backend, self._n)
        oracle = self._oracles.get(name)
        if oracle is None:
            oracle = build_distance_oracle(self, name)
            self._oracles[name] = oracle
        return oracle

    def use_distance_backend(self, backend: str) -> "Graph":
        """Pin the default distance backend (``"dense"``/``"lazy"``/``"auto"``).

        Returns ``self`` for chaining; existing per-backend caches are kept.
        """
        resolve_backend(backend, self._n)  # validate early
        self._backend = None if backend == "auto" else backend
        return self

    @contextmanager
    def pinned_distance_backend(self, backend: str):
        """Temporarily pin the default backend; restores the prior policy.

        Lets an experiment force a backend for one computation without a
        lasting side effect on a shared graph.
        """
        prev = self._backend
        self.use_distance_backend(backend)
        try:
            yield self
        finally:
            self._backend = prev

    @property
    def oracle(self) -> DistanceOracle:
        """The graph's current default distance oracle."""
        return self.distance_oracle()

    @property
    def distance_backend(self) -> str:
        """Name of the backend the default oracle uses."""
        return resolve_backend(self._backend, self._n)

    @property
    def dense_materialized(self) -> bool:
        """Whether an O(n²) dense matrix has been computed for this graph.

        Benchmarks assert this stays ``False`` on the lazy path.
        """
        from .oracle import DenseDistanceOracle

        dense = self._oracles.get("dense")
        return isinstance(dense, DenseDistanceOracle) and dense.materialized

    # ------------------------------------------------------------------ #
    # hop distances
    # ------------------------------------------------------------------ #

    @property
    def hop_distances(self) -> DistArray:
        """All-pairs hop-distance matrix, shape ``(n, n)``, dtype int32.

        Compatibility/small-n API: this always materializes the **dense**
        backend's O(n²) matrix, whatever the default backend is.  Scalable
        code should use :meth:`bfs_distances`, :meth:`khop_neighbors` or
        the oracle's ``ball`` queries instead.
        """
        from .oracle import DenseDistanceOracle

        dense = self.distance_oracle("dense")
        assert isinstance(dense, DenseDistanceOracle)
        return dense.matrix

    def bfs_distances(self, source: NodeId) -> DistArray:
        """Hop distances from ``source`` to every node (read-only int32)."""
        return self.oracle.row(source)

    def hop_distance(self, u: NodeId, v: NodeId) -> int:
        """Hop distance between ``u`` and ``v`` (:data:`UNREACHABLE` if none)."""
        return self.oracle.distance(u, v)

    def eccentricity(self, u: NodeId) -> int:
        """Greatest hop distance from ``u`` to any reachable node."""
        return self.oracle.eccentricity(u)

    def diameter(self) -> int:
        """Graph diameter; raises on disconnected graphs.

        On the dense backend this is one ``matrix.max()``; on the lazy
        backend it streams one BFS row per node — O(n·(n+m)) time but
        never O(n²) resident memory.
        """
        if not self.is_connected():
            raise DisconnectedGraphError("diameter of a disconnected graph")
        if self._n == 0:
            return 0
        from .oracle import DenseDistanceOracle

        oracle = self.oracle
        if isinstance(oracle, DenseDistanceOracle):
            return int(oracle.matrix.max())
        return max(oracle.eccentricity(u) for u in range(self._n))

    # ------------------------------------------------------------------ #
    # neighborhoods
    # ------------------------------------------------------------------ #

    def khop_neighbors(self, u: NodeId, k: int) -> tuple[int, ...]:
        """Nodes at hop distance ``1..k`` from ``u`` (excludes ``u``), sorted.

        This is the paper's "k-hop neighborhood" of a node: everything a
        TTL-``k`` scoped flood started at ``u`` can reach.
        """
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        nodes, dists = self.oracle.ball(u, k)
        return tuple(nodes[dists >= 1].tolist())

    def closed_khop_neighbors(self, u: NodeId, k: int) -> tuple[int, ...]:
        """``khop_neighbors(u, k)`` plus ``u`` itself, sorted."""
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        nodes, _ = self.oracle.ball(u, k)
        return tuple(nodes.tolist())

    def nodes_within(self, sources: Sequence[NodeId], k: int) -> tuple[int, ...]:
        """Nodes at hop distance ``<= k`` from *any* node in ``sources``."""
        return tuple(np.flatnonzero(self.within_mask(sources, k)).tolist())

    def within_mask(self, sources: Sequence[NodeId], k: int) -> np.ndarray:
        """Boolean node mask of :meth:`nodes_within`.

        Computed as a union of balls, so cost scales with the covered
        region rather than with ``n × len(sources)``.
        """
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        covered = np.zeros(self._n, dtype=bool)
        for s in sources:
            covered[self.oracle.ball(int(s), k)[0]] = True
        return covered

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected).

        One label-propagation pass over the CSR arrays, so connectivity
        filtering of candidate topologies never triggers the distance
        machinery.
        """
        return self._n <= 1 or csr_component_labels(*self.csr_adjacency)[1] == 1

    def component_labels(self) -> np.ndarray:
        """Per-node index into :meth:`connected_components` (uncached)."""
        labels, count = csr_component_labels(*self.csr_adjacency)
        sizes = np.bincount(labels, minlength=self._n)
        roots = np.flatnonzero(labels == np.arange(self._n))
        rank = np.empty(self._n, dtype=np.int64)
        rank[roots[np.lexsort((roots, -sizes[roots]))]] = np.arange(count)
        return rank[labels]

    def connected_components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted node tuples, largest first."""
        index = self.component_labels()
        order = np.argsort(index, kind="stable")
        cuts = np.flatnonzero(np.diff(index[order])) + 1
        return [tuple(c.tolist()) for c in np.split(order, cuts)] if self._n else []

    def is_connected_subset(self, nodes: Iterable[NodeId]) -> bool:
        """Whether the subgraph induced by ``nodes`` is connected.

        An empty or singleton subset counts as connected.  Used to verify
        backbone (CDS) connectivity.
        """
        node_list = sorted(set(nodes))
        if len(node_list) <= 1:
            return True
        node_set = set(node_list)
        root = node_list[0]
        stack = [root]
        seen = {root}
        indptr, indices = self._indptr, self._indices
        while stack:
            u = stack.pop()
            for v in indices[indptr[u] : indptr[u + 1]].tolist():
                if v in node_set and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(node_set)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def without_nodes(self, removed: Iterable[NodeId]) -> "Graph":
        """Copy of the graph with ``removed`` nodes isolated (edges dropped).

        Node numbering is preserved so that clusterings computed before and
        after a failure are directly comparable (§3.3 maintenance).  A
        removal is the edge delta that drops every incident edge (one CSR
        gather), so it runs through :meth:`with_edge_delta` for any number
        of nodes; removing already-isolated nodes is an empty delta and
        returns ``self``.
        """
        gone = _dedupe_flat(np.fromiter(removed, dtype=np.int64))
        bad = gone[(gone < 0) | (gone >= self._n)]
        if bad.size:
            raise InvalidParameterError(f"node {int(bad[0])} out of range")
        nbrs, counts = gather_csr_neighbors(self._indptr, self._indices, gone)
        return self.with_edge_delta(
            removed=np.stack([np.repeat(gone, counts), nbrs], axis=1)
        )

    def _inherit_lazy_oracles(
        self, g: "Graph", added: np.ndarray, removed: np.ndarray
    ) -> None:
        """Derive ``g``'s lazy-family oracles from this graph's.

        Each child oracle (same class and cache budgets as its parent) is
        seeded by :meth:`~repro.net.oracle.LazyDistanceOracle.inherit_edge_delta`
        with whatever of the parent's caches survives the delta.  Dense
        oracles are never carried (their matrix is monolithic).
        """
        from .oracle import LazyDistanceOracle

        for name, parent in self._oracles.items():
            if isinstance(parent, LazyDistanceOracle):
                child = type(parent)(
                    g,
                    row_cache_bytes=parent._rows.budget,
                    ball_cache_bytes=parent._balls.budget,
                )
                child.inherit_edge_delta(parent, added, removed)
                g._oracles[name] = child

    def with_edge_delta(
        self,
        added: Iterable[tuple[NodeId, NodeId]] = (),
        removed: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> "Graph":
        """Copy of the graph with ``added`` edges inserted and ``removed`` dropped.

        The one mutation that carries caches: mobility snapshots, link
        faults, node removals (:meth:`without_nodes`) and the attach step
        of node arrivals (:meth:`with_nodes`) all arrive here.  Instead
        of rebuilding from the full edge list, the sorted edge keys and
        the sorted CSR arc keys are spliced at the changed positions, and
        every lazy-family oracle carries its still-valid cached rows,
        partial rows and balls into the derived graph via
        :meth:`~repro.net.oracle.LazyDistanceOracle.inherit_edge_delta`.

        Already-present ``added`` edges and absent ``removed`` edges are
        ignored (the caller hands over a raw snapshot diff); an edge in
        both sets raises.  An empty *effective* delta returns ``self``
        (graphs are immutable, so sharing is safe).
        """
        n = self._n
        add = _edge_keys(added, n)
        rem = _edge_keys(removed, n)
        both = [divmod(int(k), n) for k in add[_member(rem, add)][:3]]
        if both:
            raise InvalidParameterError(f"edges both added and removed: {both}")
        keys = self._edge_array[:, 0] * n + self._edge_array[:, 1]
        add = add[~_member(keys, add)]
        rem = rem[_member(keys, rem)]
        if add.size == 0 and rem.size == 0:
            return self
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        arcs = rows * n + self._indices
        g = Graph.__new__(Graph)
        g._install(
            n,
            _splice(keys, rem, add),
            _splice(arcs, _arc_keys(rem, n), _arc_keys(add, n)),
            self._backend,
        )
        self._inherit_lazy_oracles(
            g,
            np.stack(np.divmod(add, n), axis=1),
            np.stack(np.divmod(rem, n), axis=1),
        )
        return g

    def with_nodes(
        self,
        count: int,
        edges: Iterable[tuple[NodeId, NodeId]] = (),
        inherit_oracles: bool = True,
    ) -> "Graph":
        """Copy of the graph grown by ``count`` new nodes (the arrival case).

        The mirror of :meth:`without_nodes`: new nodes take the next IDs
        ``n .. n+count-1`` (existing numbering is preserved, so
        clusterings and routes computed before an arrival stay directly
        comparable), and ``edges`` are the arrivals' attachment edges.
        Every attachment edge must touch at least one *new* node; a delta
        purely among existing nodes is :meth:`with_edge_delta`'s job.

        An arrival is two steps.  The *pad* step appends the new nodes
        isolated: empty CSR rows (``indptr`` repeats its last offset),
        and every lazy-family oracle's cached and partial rows padded
        with :data:`UNREACHABLE` (exact — isolated nodes are unreachable
        and join no ball).  The attachment edges then arrive as an
        ordinary :meth:`with_edge_delta`.

        ``inherit_oracles=False`` skips the carry and starts the grown
        graph with empty oracle caches.  Carrying costs O(cache) *per
        arrival*; a long-lived growth loop that admits thousands of nodes
        between queries pays O(cache x arrivals) to preserve rows it
        could rebuild once, on demand, at the next query batch.  Dropping
        caches never changes results — the oracles are exact and rebuild
        lazily.

        ``count == 0`` with no edges returns ``self`` (graphs are
        immutable, so sharing is safe).
        """
        if count < 0:
            raise InvalidParameterError(f"node count must be >= 0, got {count}")
        new_n = self._n + count
        add = np.divmod(_edge_keys(edges, new_n), new_n)
        old = np.flatnonzero(add[1] < self._n)
        if old.size:
            e = (int(add[0][old[0]]), int(add[1][old[0]]))
            raise InvalidParameterError(
                f"with_nodes edge {e} joins two existing nodes; "
                "use with_edge_delta for pure edge changes"
            )
        if count == 0:
            return self
        g = Graph.__new__(Graph)
        g._n = new_n
        g._edge_array = self._edge_array
        g._indptr = _readonly(
            np.concatenate([self._indptr, np.repeat(self._indptr[-1:], count)])
        )
        g._indices = self._indices
        g._oracles = {}
        g._backend = self._backend
        if inherit_oracles:
            empty = np.zeros((0, 2), dtype=np.int64)
            self._inherit_lazy_oracles(g, empty, empty)
        return g.with_edge_delta(added=np.stack(add, axis=1))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (all nodes, then edges)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Import from networkx; nodes must be integers ``0..n-1``."""
        nodes = sorted(g.nodes())
        n = len(nodes)
        if nodes != list(range(n)):
            raise InvalidParameterError(
                "from_networkx requires nodes labelled 0..n-1; relabel first"
            )
        return cls(n, g.edges())

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[NodeId, NodeId]]) -> "Graph":
        """Build a graph whose size is inferred from the maximum endpoint."""
        pairs = _as_pairs(edges)
        return cls(int(pairs.max()) + 1 if pairs.size else 0, pairs)
