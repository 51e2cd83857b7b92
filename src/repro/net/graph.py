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
* The graph is immutable, and every mutation produces a *new* graph
  through one path, :meth:`Graph.with_edge_delta`: the sorted edge tuple
  is spliced, the adjacency and CSR arrays are patched only around the
  changed edges' endpoints, and lazy-family oracle caches inherit through
  :meth:`~repro.net.oracle.LazyDistanceOracle.inherit_edge_delta`.
  Oracles are caches over the immutable structure, so backend switches
  are safe.
* Node failure (§3.3 of the paper) is the delta that drops every incident
  edge: :meth:`Graph.without_nodes` keeps the original node numbering and
  leaves the failed nodes isolated, so results remain comparable.
  Mobility (nodes that move rather than disappear) is a snapshot diff.
* Node arrivals (the long-lived service's growth path) take the next IDs:
  :meth:`Graph.with_nodes` pads the graph with isolated nodes (empty
  adjacency and CSR rows, cached rows padded with :data:`UNREACHABLE`),
  then adds the attachment edges as an ordinary delta.
* All backends use the int32 :data:`UNREACHABLE` sentinel and refuse
  graphs beyond :data:`~repro.net.oracle.MAX_ORACLE_NODES` nodes rather
  than silently overflowing hop distances (the seed's int16 ceiling of
  32766 nodes is gone).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import DisconnectedGraphError, InvalidParameterError
from ..types import DistArray, Edge, IndexArray, NodeId, normalize_edge
from .oracle import (
    UNREACHABLE,
    DistanceOracle,
    build_distance_oracle,
    resolve_backend,
)

__all__ = ["Graph", "UNREACHABLE"]


class Graph:
    """Immutable undirected graph on nodes ``0..n-1``.

    Args:
        n: number of nodes.
        edges: iterable of ``(u, v)`` pairs; order and duplicates are
            normalized away.  Self-loops raise :class:`ValueError`.

    The constructor is O(n + m log m); all hop-distance machinery is lazy
    and cached.
    """

    __slots__ = ("_n", "_edges", "_adj", "_oracles", "_backend", "__dict__")

    def __init__(self, n: int, edges: Iterable[tuple[NodeId, NodeId]] = ()) -> None:
        if n < 0:
            raise InvalidParameterError(f"node count must be >= 0, got {n}")
        self._n = int(n)
        norm: set[Edge] = set()
        for u, v in edges:
            e = normalize_edge(int(u), int(v))
            if not (0 <= e[0] < n and 0 <= e[1] < n):
                raise InvalidParameterError(f"edge {e} out of range for n={n}")
            norm.add(e)
        self._edges: tuple[Edge, ...] = tuple(sorted(norm))
        adj: list[list[int]] = [[] for _ in range(self._n)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._oracles: dict[str, DistanceOracle] = {}
        self._backend: str | None = None  # None = auto policy

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
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted tuple of normalized edges."""
        return self._edges

    def nodes(self) -> range:
        """Iterable over all node IDs."""
        return range(self._n)

    def neighbors(self, u: NodeId) -> tuple[int, ...]:
        """Sorted tuple of ``u``'s 1-hop neighbors."""
        return self._adj[u]

    def degree(self, u: NodeId) -> int:
        """Number of 1-hop neighbors of ``u``."""
        return len(self._adj[u])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``{u, v}`` is an edge (False for u == v)."""
        if u == v:
            return False
        a, b = (u, v) if len(self._adj[u]) <= len(self._adj[v]) else (v, u)
        return b in self._adj[a]

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
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.m})"

    # ------------------------------------------------------------------ #
    # distance backends
    # ------------------------------------------------------------------ #

    @cached_property
    def csr_adjacency(self) -> tuple[IndexArray, IndexArray]:
        """CSR adjacency arrays ``(indptr, indices)``.

        ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s sorted neighbors.
        This is the representation the lazy BFS kernels run on; it costs
        O(n + m) memory regardless of graph size.
        """
        degs = np.fromiter(
            (len(a) for a in self._adj), dtype=np.int64, count=self._n
        )
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.fromiter(
            (v for a in self._adj for v in a),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

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
        """Nodes at hop distance ``<= k`` from *any* node in ``sources``.

        Computed as a union of balls, so cost scales with the covered
        region rather than with ``n × len(sources)``.
        """
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        if len(sources) == 0:
            return ()
        oracle = self.oracle
        covered: set[int] = set()
        for s in sources:
            nodes, _ = oracle.ball(int(s), k)
            covered.update(nodes.tolist())
        return tuple(sorted(covered))

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected).

        Uses a plain adjacency-list BFS so connectivity filtering of
        candidate topologies never triggers the distance machinery.
        """
        if self._n <= 1:
            return True
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def connected_components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted node tuples, largest first."""
        comps: list[tuple[int, ...]] = []
        seen = np.zeros(self._n, dtype=bool)
        oracle = self.oracle
        for u in range(self._n):
            if seen[u]:
                continue
            members = np.flatnonzero(oracle.row(u) < UNREACHABLE)
            seen[members] = True
            comps.append(tuple(members.tolist()))
        comps.sort(key=lambda c: (-len(c), c))
        return comps

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
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
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
        removal is the edge delta that drops every incident edge, so it
        runs through :meth:`with_edge_delta` for any number of nodes (CSR
        patch plus cache inheritance); removing already-isolated nodes is
        an empty delta and returns ``self``.
        """
        gone = sorted({int(u) for u in removed})
        for u in gone:
            if not (0 <= u < self._n):
                raise InvalidParameterError(f"node {u} out of range")
        return self.with_edge_delta(
            removed=[(u, v) for u in gone for v in self._adj[u]]
        )

    def _inherit_lazy_oracles(
        self, g: "Graph", added: Sequence[Edge], removed: Sequence[Edge]
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

    def _checked_edges(
        self, edges: Iterable[tuple[NodeId, NodeId]]
    ) -> set[Edge]:
        out: set[Edge] = set()
        for u, v in edges:
            e = normalize_edge(int(u), int(v))
            if not (0 <= e[0] < self._n and 0 <= e[1] < self._n):
                raise InvalidParameterError(f"edge {e} out of range for n={self._n}")
            out.add(e)
        return out

    def with_edge_delta(
        self,
        added: Iterable[tuple[NodeId, NodeId]] = (),
        removed: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> "Graph":
        """Copy of the graph with ``added`` edges inserted and ``removed`` dropped.

        The one mutation that carries caches: mobility snapshots, link
        faults, node removals (:meth:`without_nodes`) and the attach step
        of node arrivals (:meth:`with_nodes`) all arrive here.  Instead
        of rebuilding from the full edge list, the sorted edge tuple is
        spliced at the changed positions, the adjacency and CSR arrays
        are patched only for the *touched* nodes (endpoints of changed
        edges), and every lazy-family oracle carries its still-valid
        cached rows, partial rows and balls into the derived graph via
        :meth:`~repro.net.oracle.LazyDistanceOracle.inherit_edge_delta`.

        Already-present ``added`` edges and absent ``removed`` edges are
        ignored (the caller hands over a raw snapshot diff); an edge in
        both sets raises.  An empty *effective* delta returns ``self``
        (graphs are immutable, so sharing is safe).
        """
        add = self._checked_edges(added)
        rem = self._checked_edges(removed)
        overlap = add & rem
        if overlap:
            raise InvalidParameterError(
                f"edges both added and removed: {sorted(overlap)[:3]}"
            )
        add = {e for e in add if not self.has_edge(*e)}
        rem = {e for e in rem if self.has_edge(*e)}
        if not add and not rem:
            return self
        # Splice the sorted edge tuple: O(delta log m) bisects plus
        # contiguous slice copies, never a re-sort of all m edges.
        parts: list[tuple[Edge, ...]] = []
        prev = 0
        for e in sorted(add | rem):
            i = bisect_left(self._edges, e, prev)
            parts.append(self._edges[prev:i])
            if e in add:
                parts.append((e,))
                prev = i
            else:
                prev = i + 1
        parts.append(self._edges[prev:])
        touched = sorted({x for e in add for x in e} | {x for e in rem for x in e})
        g = Graph.__new__(Graph)
        g._n = self._n
        g._edges = tuple(chain.from_iterable(parts))
        adj = list(self._adj)
        patch: dict[int, set[int]] = {t: set(self._adj[t]) for t in touched}
        for u, v in rem:
            patch[u].discard(v)
            patch[v].discard(u)
        for u, v in add:
            patch[u].add(v)
            patch[v].add(u)
        for t in touched:
            adj[t] = tuple(sorted(patch[t]))
        g._adj = tuple(adj)
        g._oracles = {}
        g._backend = self._backend
        if "csr_adjacency" in self.__dict__:
            g.__dict__["csr_adjacency"] = self._patched_csr(g._adj, touched)
        self._inherit_lazy_oracles(g, sorted(add), sorted(rem))
        return g

    def _patched_csr(
        self, new_adj: Sequence[tuple[int, ...]], touched: Sequence[int]
    ) -> tuple[IndexArray, IndexArray]:
        """CSR arrays for ``new_adj``, reusing this graph's cached CSR.

        Only the touched nodes' slices are rewritten; the (typically much
        larger) untouched spans between them are copied contiguously —
        O(#touched) Python iterations plus O(m) memcpy, never an
        O(m log m) rebuild from the edge list.
        """
        indptr, indices = self.csr_adjacency
        new_degs = np.diff(indptr).copy()
        for t in touched:
            new_degs[t] = len(new_adj[t])
        new_indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(new_degs, out=new_indptr[1:])
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.int64)
        prev = 0
        for t in [*touched, self._n]:
            if t > prev:  # contiguous untouched span [prev, t)
                new_indices[new_indptr[prev] : new_indptr[t]] = indices[
                    indptr[prev] : indptr[t]
                ]
            if t < self._n:
                new_indices[new_indptr[t] : new_indptr[t + 1]] = np.asarray(
                    new_adj[t], dtype=np.int64
                )
            prev = t + 1
        new_indptr.setflags(write=False)
        new_indices.setflags(write=False)
        return new_indptr, new_indices

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
        isolated: empty adjacency and CSR rows, and every lazy-family
        oracle's cached and partial rows padded with
        :data:`UNREACHABLE` (exact — isolated nodes are unreachable and
        join no ball).  The attachment edges then arrive as an ordinary
        :meth:`with_edge_delta`.

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
        add: set[Edge] = set()
        for u, v in edges:
            e = normalize_edge(int(u), int(v))
            if not (0 <= e[0] < new_n and e[1] < new_n):
                raise InvalidParameterError(
                    f"edge {e} out of range for grown n={new_n}"
                )
            if e[1] < self._n:
                raise InvalidParameterError(
                    f"with_nodes edge {e} joins two existing nodes; "
                    "use with_edge_delta for pure edge changes"
                )
            add.add(e)
        if count == 0:
            return self
        g = Graph.__new__(Graph)
        g._n = new_n
        g._edges = self._edges
        g._adj = self._adj + ((),) * count
        g._oracles = {}
        g._backend = self._backend
        if "csr_adjacency" in self.__dict__:
            indptr, indices = self.csr_adjacency
            tail = np.full(count, indptr[-1], dtype=np.int64)
            padded = np.concatenate([indptr, tail])
            padded.setflags(write=False)
            g.__dict__["csr_adjacency"] = (padded, indices)
        if inherit_oracles:
            self._inherit_lazy_oracles(g, (), ())
        return g.with_edge_delta(added=add)

    def with_edges(self, extra: Iterable[tuple[NodeId, NodeId]]) -> "Graph":
        """Copy of the graph with additional edges."""
        g = Graph(self._n, list(self._edges) + list(extra))
        g._backend = self._backend
        return g

    def induced_subgraph_edges(self, nodes: Iterable[NodeId]) -> list[Edge]:
        """Edges of the subgraph induced by ``nodes`` (original numbering)."""
        s = set(nodes)
        return [e for e in self._edges if e[0] in s and e[1] in s]

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (all nodes, then edges)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self._edges)
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
        edge_list = [normalize_edge(u, v) for u, v in edges]
        n = 1 + max((e[1] for e in edge_list), default=-1)
        return cls(n, edge_list)
