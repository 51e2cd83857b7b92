"""Canonical shortest paths and the path oracle.

The paper's gateway algorithms all hinge on *which* shortest path is chosen
between a pair of clusterheads ("virtual links", §3.2): the interior nodes
of the chosen path become gateways when the link is selected.  The paper
does not pin the choice down, so this reproduction defines a single
**canonical shortest path** per unordered pair that is

* deterministic (reruns and different algorithms agree),
* symmetric (``path(u, v)`` is ``path(v, u)`` reversed), and
* realizable by a distributed BFS: it equals the predecessor chain produced
  by a scoped flood from the *smaller-ID* endpoint in which every node
  adopts its minimum-ID predecessor — exactly what the round-simulator
  protocols in :mod:`repro.sim.protocols` implement.

Definition
----------
For ``s = min(u, v)``, ``t = max(u, v)``: walk backwards from ``t``; at each
step move to the minimum-ID neighbor that is one hop closer to ``s``.
Reversing the walk gives the canonical path from ``s`` to ``t``.

Backend note
------------
The walk reads the BFS levels of the smaller endpoint, and only those
below ``d(s, t)``.  :meth:`PathOracle.paths` builds every cached path:
it walks the root's row where the graph's
:class:`~repro.net.oracle.DistanceOracle` holds one, and otherwise a
:func:`~repro.net.oracle.multi_source_bfs` sweep that stops at the level
of its deepest target and never enters the row cache.  A member's leg to
its head spans at most k hops and an intra-cluster pair at most 2k
(§3.2), so the router's sweeps stay that shallow instead of running the
graph's whole depth.  :func:`canonical_path` is the uncached single-pair
form; it reads the full row through :meth:`Graph.bfs_distances`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import DisconnectedGraphError
from ..types import DistArray, IndexArray, NodeId
from .graph import UNREACHABLE, Graph
from .oracle import (
    BATCH_BITS,
    ByteBudgetLRU,
    OracleStats,
    gather_csr_neighbors,
    multi_source_bfs,
)

__all__ = [
    "canonical_path",
    "path_interior",
    "PathOracle",
    "DEFAULT_PATH_CACHE_BYTES",
]

#: Default byte budget for the per-pair canonical-path cache (~4 MiB).
DEFAULT_PATH_CACHE_BYTES: int = 4 << 20


def _path_nbytes(path: tuple[int, ...]) -> int:
    """Approximate resident size of a cached path entry.

    A tuple of n small ints costs roughly one machine word per element
    plus fixed tuple/key overhead; precise accounting is not the point —
    bounding growth under adversarial query streams is.
    """
    return 8 * len(path) + 64


def _walk_back(
    indptr: IndexArray, indices: IndexArray, dist: DistArray, s: int, t: int
) -> tuple[int, ...]:
    """The canonical path ``s .. t`` read off ``dist``, the levels from ``s``.

    Walks back from ``t``, each hop to the minimum-ID neighbor one level
    closer: CSR rows are sorted, so that is the row's first node one
    level up.  Only levels below ``d(s, t)`` are read, so a sweep cut
    off after the level of ``t`` serves as well as a full row.

    Raises:
        DisconnectedGraphError: if ``dist`` does not reach ``t``.
    """
    d = int(dist[t])
    if d >= UNREACHABLE:
        raise DisconnectedGraphError(f"no path between {s} and {t}")
    rev = [t]
    cur = t
    for level in range(d - 1, -1, -1):
        for w in indices[indptr[cur] : indptr[cur + 1]].tolist():
            if dist[w] == level:
                cur = w
                break
        rev.append(cur)
    path = tuple(reversed(rev))
    assert path[0] == s and len(path) == d + 1
    return path


def canonical_path(graph: Graph, u: NodeId, v: NodeId) -> tuple[int, ...]:
    """The canonical shortest path between ``u`` and ``v``, oriented u -> v.

    The underlying unordered path is computed from ``min(u, v)`` (see module
    docstring); if ``u > v`` the result is reversed so it always starts at
    ``u`` and ends at ``v``.  Uncached: it reads ``min(u, v)``'s full row
    through the graph's distance oracle.

    Raises:
        DisconnectedGraphError: if ``v`` is unreachable from ``u``.
    """
    if u == v:
        return (u,)
    s, t = (u, v) if u < v else (v, u)
    indptr, indices = graph.csr_adjacency
    path = _walk_back(indptr, indices, graph.bfs_distances(s), s, t)
    return path if u == s else tuple(reversed(path))


def path_interior(path: tuple[int, ...]) -> tuple[int, ...]:
    """Interior (non-endpoint) nodes of a path — the gateway candidates."""
    return path[1:-1]


class PathOracle:
    """Memoizing provider of canonical paths and hop distances for one graph.

    A single experiment queries the same clusterhead pairs many times
    (neighbor selection, mesh gateways, LMST gateways, G-MST baseline); the
    oracle computes each canonical path once.  The per-pair cache is
    bounded by a byte-budgeted LRU (:class:`~repro.net.oracle.ByteBudgetLRU`
    — the same policy class as the distance oracle's row/ball caches), so
    a long pair-heavy experiment can no longer grow the cache without
    bound; :meth:`stats` reports occupancy and hit counters.

    The oracle is keyed by unordered pair; :meth:`path` orients the stored
    path to the requested direction.
    """

    def __init__(
        self, graph: Graph, *, cache_bytes: int = DEFAULT_PATH_CACHE_BYTES
    ) -> None:
        self._graph = graph
        self._cache = ByteBudgetLRU(cache_bytes)
        self._paths_computed = 0
        self._path_hits = 0
        self._paths_inherited = 0
        self._batched_sweeps = 0
        self._sweep_levels = 0
        self._peak_bytes = 0

    @property
    def graph(self) -> Graph:
        """The underlying network graph."""
        return self._graph

    @property
    def paths_inherited(self) -> int:
        """Cached paths carried over from a parent oracle or seeded."""
        return self._paths_inherited

    def inherit_from(self, parent: "PathOracle", removed: NodeId) -> int:
        """:meth:`inherit_edge_delta` for the removal of node ``removed``.

        The name stays because the traced benchmark run
        (``perfbench/layers.py``) looks it up on this class.
        """
        return self.inherit_edge_delta(parent, (removed,))

    def inherit_node_add(self, parent: "PathOracle") -> int:
        """:meth:`inherit_edge_delta` for node arrivals (new nodes count as
        touched implicitly).

        The name stays because the traced benchmark run
        (``perfbench/layers.py``) looks it up on this class.
        """
        return self.inherit_edge_delta(parent, ())

    def inherit_edge_delta(
        self, parent: "PathOracle", touched: Iterable[NodeId]
    ) -> int:
        """Seed the path cache from ``parent`` after any structural change.

        Call this on an oracle for the changed graph *before* querying
        it.  ``touched`` must contain an endpoint of every changed edge;
        nodes this graph appended (IDs ``>= parent.graph.n``) count as
        touched implicitly.  The added and removed edges are derived by
        comparing the two graphs' adjacency at the touched nodes, so
        ``touched`` may span several composed deltas (the mobility loop
        inherits across disconnected-snapshot gaps).

        A cached canonical path survives iff

        (a) it uses no removed edge;
        (b) none of its nodes gained an edge to another old node; and
        (c) if any edge was added, both oracles hold resident rows for the
            path's BFS root ``s`` (:meth:`DistanceOracle.cached_row`) and
            the rows agree on every path node and every neighbor of one.

        Under (a) and (b) each node's old min-ID predecessor is still a
        candidate of the backward walk, and every new candidate is a new
        node — which never wins a min-ID tie — or an old candidate.  What
        remains is that the BFS levels the walk consults are unchanged: a
        pure removal only *increases* distances, so the path's own levels
        survive along its surviving edges and candidate sets can only
        shrink; once an edge appears, levels can drop anywhere, which (c)
        rules out.

        Returns the number of paths carried over.
        """
        old, new = parent._graph, self._graph
        old_n = old.n
        nodes = {int(t) for t in touched} | set(range(old_n, new.n))
        removed: set[tuple[int, int]] = set()
        gained: set[int] = set()
        grew = False
        for t in nodes:
            before = set(old.neighbors(t)) if t < old_n else set()
            after = set(new.neighbors(t))
            for v in before - after:
                removed.add((t, v) if t < v else (v, t))
            for v in after - before:
                grew = True
                if t < old_n and v < old_n:
                    gained.update((t, v))
        cut = {x for e in removed for x in e}
        if grew:
            parent_oracle = old.oracle
            child_oracle = new.oracle
            indptr, indices = new.csr_adjacency
        # Per source: nodes whose own or neighboring level changed (None =
        # no resident row pair, the source's paths drop).
        bad_nodes: dict[int, set | None] = {}
        seed = []
        for key, path in parent._cache.items():
            if key in self._cache or not gained.isdisjoint(path):
                continue
            if not cut.isdisjoint(path) and any(
                ((a, b) if a < b else (b, a)) in removed
                for a, b in zip(path, path[1:])
            ):
                continue
            if grew:
                s = key[0]
                bad = bad_nodes.get(s, -1)
                if bad == -1:
                    old_row = parent_oracle.cached_row(s)
                    new_row = child_oracle.cached_row(s)
                    if old_row is None or new_row is None:
                        bad = None
                    elif new_row is old_row:  # carried verbatim
                        bad = set()
                    else:
                        moved = np.flatnonzero(new_row[:old_n] != old_row)
                        bad = set(moved.tolist())
                        if moved.size:
                            nbrs, _ = gather_csr_neighbors(indptr, indices, moved)
                            bad.update(nbrs.tolist())
                    bad_nodes[s] = bad
                if bad is None or not bad.isdisjoint(path):
                    continue
            seed.append((key, path, _path_nbytes(path)))
        self._cache.seed(seed)
        self._paths_inherited += len(seed)
        if self._cache.nbytes > self._peak_bytes:
            self._peak_bytes = self._cache.nbytes
        return len(seed)

    def has_path(self, u: NodeId, v: NodeId) -> bool:
        """Whether the ``u``-``v`` canonical path is already cached."""
        if u == v:
            return True
        return ((u, v) if u < v else (v, u)) in self._cache

    def seed_paths(self, paths: Iterable[tuple[NodeId, ...]]) -> int:
        """Bulk-insert known canonical paths (e.g. surviving virtual links).

        Every path must be the *canonical* path between its endpoints on
        this oracle's graph — the caller's obligation; repair uses the
        previous backbone's stored link paths, which stay canonical as
        long as they avoid every removed node.  Already-cached pairs are
        skipped.  Returns the number of paths seeded.
        """
        seed = []
        seen: set[tuple[NodeId, NodeId]] = set()
        for path in paths:
            if len(path) < 2:
                continue
            u, v = path[0], path[-1]
            key = (u, v) if u < v else (v, u)
            if key in seen or key in self._cache:
                continue
            seen.add(key)
            stored = path if path[0] == key[0] else tuple(reversed(path))
            seed.append((key, stored, _path_nbytes(stored)))
        self._cache.seed(seed)
        self._paths_inherited += len(seed)
        if self._cache.nbytes > self._peak_bytes:
            self._peak_bytes = self._cache.nbytes
        return len(seed)

    def distance(self, u: NodeId, v: NodeId) -> int:
        """Hop distance between ``u`` and ``v`` in the underlying graph.

        Routed through the graph's current distance oracle, so on the
        landmark backend a pair query costs O(|label|), never a BFS row.
        """
        return self._graph.hop_distance(u, v)

    def path(self, u: NodeId, v: NodeId) -> tuple[int, ...]:
        """Canonical path oriented from ``u`` to ``v`` (cached per pair).

        A miss resolves as a one-pair :meth:`paths` batch.
        """
        if u == v:
            return (u,)
        key = (u, v) if u < v else (v, u)
        stored = self._cache.get(key)
        if stored is None:
            return self.paths(((u, v),))[(u, v)]
        self._path_hits += 1
        return stored if u == key[0] else tuple(reversed(stored))

    def paths(
        self, pairs: Iterable[tuple[NodeId, NodeId]]
    ) -> dict[tuple[NodeId, NodeId], tuple[int, ...]]:
        """Canonical paths for many pairs, each oriented as requested.

        The one place a canonical path is built.  Pairs missing from the
        cache are grouped by their BFS root ``min(u, v)``:

        * a root whose full row is resident in the graph's distance
          oracle walks that row, each walk reading it through
          :meth:`~repro.net.oracle.DistanceOracle.row` (one row hit per
          path, as a single-pair lookup counts);
        * the other roots run :data:`~repro.net.oracle.BATCH_BITS` at a
          time through :func:`~repro.net.oracle.multi_source_bfs` with a
          stop set, so a sweep ends at the first level at which every
          target of its chunk is reached.  The walk reads only levels
          below ``d(s, t)``, so the truncated block is exact; it never
          enters the row cache.  ``stats().batched_sweeps`` and
          ``stats().sweep_levels`` count these sweeps and their levels.

        The counters read as if :meth:`path` ran once per distinct
        requested pair: each counts one hit or one computed path.  The
        returned dict holds every path, so an over-budget cache may
        evict freely while a batch resolves.

        Raises:
            DisconnectedGraphError: if some pair has no path.
        """
        wanted = list(dict.fromkeys(pairs))
        found: dict[tuple[int, int], tuple[int, ...]] = {}
        todo: dict[int, dict[int, None]] = {}  # root -> targets
        for u, v in wanted:
            if u == v:
                continue
            s, t = (u, v) if u < v else (v, u)
            if (s, t) in found or t in todo.get(s, ()):
                self._path_hits += 1  # the other orientation, this batch
                continue
            stored = self._cache.get((s, t))
            if stored is None:
                todo.setdefault(s, {})[t] = None
            else:
                self._path_hits += 1
                found[(s, t)] = stored
        graph = self._graph
        indptr, indices = graph.csr_adjacency
        oracle = graph.oracle
        swept: list[int] = []
        for s in sorted(todo):
            if oracle.cached_row(s) is None:
                swept.append(s)
                continue
            for t in todo[s]:
                dist = oracle.row(s)  # one row hit per walk, as canonical_path
                self._store(found, _walk_back(indptr, indices, dist, s, t))
        for start in range(0, len(swept), BATCH_BITS):
            chunk = swept[start : start + BATCH_BITS]
            lanes = [i for i, s in enumerate(chunk) for _ in todo[s]]
            targets = [t for s in chunk for t in todo[s]]
            block = multi_source_bfs(
                indptr, indices, graph.n, chunk, stop=(lanes, targets)
            )
            depth = block[lanes, targets]
            self._batched_sweeps += 1
            self._sweep_levels += int(depth[depth < UNREACHABLE].max(initial=0))
            for i, s in enumerate(chunk):
                for t in todo[s]:
                    self._store(found, _walk_back(indptr, indices, block[i], s, t))
        out: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
        for u, v in wanted:
            if u == v:
                out[(u, v)] = (u,)
            elif u < v:
                out[(u, v)] = found[(u, v)]
            else:
                out[(u, v)] = tuple(reversed(found[(v, u)]))
        return out

    def _store(
        self, found: dict[tuple[int, int], tuple[int, ...]], path: tuple[int, ...]
    ) -> None:
        """Cache a freshly walked path (stored ``min .. max``)."""
        key = (path[0], path[-1])
        found[key] = path
        self._paths_computed += 1
        self._cache.put(key, path, _path_nbytes(path))
        if self._cache.nbytes > self._peak_bytes:
            self._peak_bytes = self._cache.nbytes

    def interior(self, u: NodeId, v: NodeId) -> tuple[int, ...]:
        """Interior nodes of the canonical ``u``-``v`` path."""
        return path_interior(self.path(u, v))

    def stats(self) -> OracleStats:
        """Path-cache occupancy and hit counters (``backend="path-cache"``)."""
        return OracleStats(
            backend="path-cache",
            rows_computed=0,
            row_hits=0,
            balls_computed=0,
            ball_hits=0,
            cached_bytes=self._cache.nbytes,
            peak_cached_bytes=self._peak_bytes,
            batched_sweeps=self._batched_sweeps,
            paths_computed=self._paths_computed,
            path_hits=self._path_hits,
            sweep_levels=self._sweep_levels,
        )

    def __len__(self) -> int:
        """Number of distinct pairs currently cached."""
        return len(self._cache)
