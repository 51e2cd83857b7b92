"""The k-hop clustering algorithm (§3 of the paper).

Iterative generalized-lowest-ID clustering over k-hop neighborhoods:

    In each round, every still-undecided node whose priority key is the best
    among the *undecided* nodes of its k-hop neighborhood declares itself a
    clusterhead.  Every undecided non-head that has at least one newly
    declared head within k hops then joins exactly one of those heads
    (membership policy).  Rounds repeat until every node is decided.

Properties (proved in the paper, checked in :mod:`repro.core.validate`):

* clusters partition the node set (non-overlapping, every node joins);
* every member is within k hops of its head (heads form a k-hop DS);
* heads are pairwise more than k hops apart (k-hop independent set) —
  undecided nodes within k hops of a head are forced to join in the same
  round, so no later head can appear within k hops of an earlier one.

Distances are hop distances in the *original* graph ``G`` (radio hops can
relay through already-decided nodes).

Engines and their round-equivalence
-----------------------------------
Two engines implement the identical algorithm:

* the **batched** engine (default) — the declaration phase is ``k``
  sweeps of neighborhood-min key propagation over the CSR adjacency
  arrays, and the join phase one multi-source depth-limited BFS from the
  round's new heads followed by vectorized candidate extraction;
* the **scalar** engine — the per-node reference loop (one oracle ball
  query + Python ``min()`` per undecided node), selected with
  ``engine="scalar"``; tests and ``make bench-pipeline`` compare the
  batched engine against it.

Round equivalence argument (why the two produce identical ``head_of``):

* *Declaration.*  Seed ``val[u]`` with ``u``'s priority rank if ``u`` is
  undecided, else +inf, then relax ``val[u] = min(val[u], min over
  neighbors)`` ``k`` times.  After sweep ``i``, ``val[u]`` is the minimum
  rank of any *undecided* node within ``i`` hops of ``u`` — decided nodes
  contribute +inf but still relay, matching the scalar path's hop
  distances in the original ``G``.  Ranks are strictly totally ordered
  (node ID tie-break), so ``val[u] == rank[u]`` after ``k`` sweeps holds
  iff ``u`` is the unique best undecided node of its closed k-ball —
  exactly the scalar declaration test.
* *Join.*  A depth-``k`` multi-source BFS from the new heads reaches an
  undecided node ``u`` at depth ``d <= k`` iff the scalar oracle ball of
  ``u`` contains that head at distance ``d`` (both are hop distances in
  ``G``).  Candidates are extracted per node in increasing head-ID order
  and the joins resolved through the same membership policy — the
  stateless policies vectorize the identical min, and the size-based
  policy walks the same node-ID admission order over the same candidate
  lists, so every choice coincides with the scalar engine's.

Property tests assert ``head_of`` identity across both engines on every
priority × membership × generator combination, including post-churn
(``without_nodes``) graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from ..errors import DisconnectedGraphError, InvalidParameterError
from ..net.graph import Graph
from ..net.oracle import multi_source_bfs
from ..obs import span
from ..types import NodeId
from .membership import JoinContext, MembershipPolicy, resolve_membership
from .priorities import PriorityScheme, key_ranks, resolve_priority

__all__ = [
    "Clustering",
    "admit_nodes",
    "group_by_assignment",
    "khop_cluster",
    "resolve_head_conflicts",
]


def group_by_assignment(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Group array positions by value in one stable-argsort pass.

    Returns ``(order, uniq, bounds)``: positions sorted so equal values
    are contiguous (ties in ascending position order), the distinct
    values ascending, and the segment boundaries — group ``i`` is
    ``order[bounds[i]:bounds[i + 1]]``.  The one-pass replacement for
    per-value O(n) scans over head assignments (cluster membership,
    repair validation).
    """
    order = np.argsort(values, kind="stable")
    uniq, starts = np.unique(values[order], return_index=True)
    bounds = starts.tolist() + [int(values.size)]
    return order, uniq, bounds


@dataclass(frozen=True)
class Clustering:
    """The outcome of k-hop clustering on a graph.

    Attributes:
        graph: the clustered network ``G``.
        k: cluster radius parameter.
        head_of: per-node head assignment (``head_of[h] == h`` for heads).
        heads: sorted tuple of clusterhead IDs.
        rounds: how many declare/join rounds the algorithm ran.
        priority_name: provenance — priority scheme used.
        membership_name: provenance — membership policy used.
    """

    graph: Graph
    k: int
    head_of: tuple[NodeId, ...]
    heads: tuple[NodeId, ...]
    rounds: int
    priority_name: str = "lowest-id"
    membership_name: str = "id-based"
    _members_cache: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------ #

    def is_head(self, u: NodeId) -> bool:
        """Whether ``u`` is a clusterhead."""
        return self.head_of[u] == u

    def cluster_of(self, u: NodeId) -> NodeId:
        """The head of the cluster that ``u`` belongs to."""
        return self.head_of[u]

    def members(self, head: NodeId) -> tuple[NodeId, ...]:
        """All nodes of ``head``'s cluster, including the head, sorted.

        The first call groups *all* clusters in one ``O(n log n)`` pass (a
        stable argsort of ``head_of``) and fills the cache wholesale, so
        iterating every cluster — :meth:`clusters`, routing-table sizing —
        costs one pass instead of one O(n) scan per head.
        """
        if self.head_of[head] != head:
            raise InvalidParameterError(f"node {head} is not a clusterhead")
        if not self._members_cache:
            assignment = np.asarray(self.head_of, dtype=np.int64)
            order, uniq, bounds = group_by_assignment(assignment)
            for i, h in enumerate(uniq.tolist()):
                self._members_cache[h] = tuple(
                    order[bounds[i] : bounds[i + 1]].tolist()
                )
        return self._members_cache[head]

    def clusters(self) -> Mapping[NodeId, tuple[NodeId, ...]]:
        """Mapping head -> sorted member tuple (members include the head)."""
        return {h: self.members(h) for h in self.heads}

    def cluster_sizes(self) -> dict[NodeId, int]:
        """Mapping head -> cluster size."""
        return {h: len(self.members(h)) for h in self.heads}

    def non_heads(self) -> Iterator[NodeId]:
        """All plain members (nodes that are not clusterheads)."""
        return (u for u in self.graph.nodes() if self.head_of[u] != u)

    @property
    def num_clusters(self) -> int:
        """Number of clusters (== number of clusterheads)."""
        return len(self.heads)

    def head_distance(self, u: NodeId) -> int:
        """Hop distance from ``u`` to its clusterhead."""
        return self.graph.hop_distance(u, self.head_of[u])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Clustering(n={self.graph.n}, k={self.k}, "
            f"heads={len(self.heads)}, rounds={self.rounds})"
        )


def khop_cluster(
    graph: Graph,
    k: int,
    *,
    priority: "PriorityScheme | str | None" = None,
    membership: "MembershipPolicy | str | None" = None,
    require_connected: bool = True,
    engine: str | None = None,
) -> Clustering:
    """Run the paper's iterative k-hop clustering algorithm.

    Args:
        graph: the network ``G``.
        k: cluster radius (``k >= 1``); the paper evaluates ``k`` in 1..4.
        priority: clusterhead priority scheme (default lowest-ID).
        membership: join policy for covered nodes (default ID-based).
        require_connected: raise :class:`DisconnectedGraphError` on a
            disconnected input (the connected-backbone theorems assume a
            connected ``G``).  Pass ``False`` to cluster each component
            independently, e.g. for maintenance experiments.
        engine: ``"batched"`` (also ``None``, the default; CSR key
            propagation + multi-source join BFS) or ``"scalar"`` (the
            per-node reference loop).  Both produce identical clusterings
            (see the module docstring's equivalence argument).

    Returns:
        A :class:`Clustering` carrying the head assignment and provenance.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if require_connected and not graph.is_connected():
        raise DisconnectedGraphError(
            "khop_cluster requires a connected graph (pass "
            "require_connected=False to cluster components independently)"
        )
    name = engine or "batched"
    if name not in ("batched", "scalar"):
        raise InvalidParameterError(
            f"unknown clustering engine {name!r}; known: batched, scalar"
        )
    prio = resolve_priority(priority)
    policy = resolve_membership(membership)
    run = _khop_cluster_batched if name == "batched" else _khop_cluster_scalar
    with span("cluster", n=graph.n, k=k, engine=name):
        head_of, heads, rounds = run(graph, k, prio, policy)
    return Clustering(
        graph=graph,
        k=k,
        head_of=tuple(int(h) for h in head_of.tolist()),
        heads=tuple(sorted(heads)),
        rounds=rounds,
        priority_name=prio.name,
        membership_name=policy.name,
    )


def admit_nodes(clustering: Clustering, graph: Graph) -> Clustering:
    """Admit a grown graph's new nodes into an existing clustering.

    The long-lived service's arrival path: ``graph`` extends
    ``clustering.graph`` with new nodes at the next IDs (a
    :meth:`~repro.net.graph.Graph.with_nodes` result), and each new node
    is decided without re-running the global algorithm — it joins a head
    within ``k`` hops through the clustering's membership policy, or
    declares itself a head when none is in range.  New nodes are decided
    in increasing ID order, and a node declared earlier in the batch is a
    candidate for later arrivals.

    Like §3.3 repair, this preserves the cover property (every member
    within ``k`` hops of its head — re-checkable with
    ``clustering_still_valid``) but not the initial rounds' k-hop
    independence between heads: an arrival bridging two clusters can
    leave their heads closer than ``k + 1`` hops, exactly as member
    departures can after a repair splice.

    Candidate extraction reuses the batched engine's join machinery (one
    depth-``k`` multi-source BFS from the new nodes plus vectorized
    in-range masks); the joins themselves resolve through
    :meth:`~repro.core.membership.MembershipPolicy.choose` seeded with the
    *current* cluster sizes, so the size-based policy sees the real
    occupancy rather than the fresh-round sizes ``choose_batch`` assumes.
    """
    old_n = len(clustering.head_of)
    if graph.n < old_n:
        raise InvalidParameterError(
            f"grown graph has {graph.n} nodes but clustering covers {old_n}"
        )
    if graph.n == old_n:
        if graph is clustering.graph:
            return clustering
        raise InvalidParameterError(
            "admit_nodes expects a graph grown from the clustering's graph"
        )
    k = clustering.k
    policy = resolve_membership(clustering.membership_name)
    indptr, indices = graph.csr_adjacency
    new_nodes = np.arange(old_n, graph.n, dtype=np.int64)
    head_of = [int(h) for h in clustering.head_of]
    sizes = {h: s for h, s in clustering.cluster_sizes().items()}
    declared: list[int] = []
    with span("cluster.admit", n=graph.n, grown=int(new_nodes.size), k=k):
        block = multi_source_bfs(indptr, indices, graph.n, new_nodes, max_depth=k)
        base_heads = np.asarray(clustering.heads, dtype=np.int64)
        # Distances from every new node to every pre-existing head, one
        # gather; finite entries are <= k by the BFS depth limit.
        base_dists = block[:, base_heads] if base_heads.size else block[:, :0]
        for i, x in enumerate(new_nodes.tolist()):
            in_range = base_dists[i] <= k
            cands = base_heads[in_range].tolist()
            cdists = base_dists[i][in_range].tolist()
            for h in declared:  # earlier arrivals that declared (IDs ascend)
                if block[i, h] <= k:
                    cands.append(h)
                    cdists.append(int(block[i, h]))
            if not cands:
                head_of.append(x)
                declared.append(x)
                sizes[x] = 1
                continue
            ctx = JoinContext(
                node=x,
                candidates=cands,
                distances=[int(d) for d in cdists],
                sizes=[sizes[h] for h in cands],
            )
            chosen = int(policy.choose(ctx))
            if chosen not in sizes:
                raise InvalidParameterError(
                    f"membership policy {policy.name!r} chose non-candidate "
                    f"head {chosen} for node {x}"
                )
            head_of.append(chosen)
            sizes[chosen] += 1
    return Clustering(
        graph=graph,
        k=k,
        head_of=tuple(head_of),
        # Declared arrivals carry the highest IDs, so appending keeps the
        # head tuple sorted.
        heads=tuple(clustering.heads) + tuple(declared),
        rounds=clustering.rounds,
        priority_name=clustering.priority_name,
        membership_name=clustering.membership_name,
    )


def resolve_head_conflicts(clustering: Clustering) -> Clustering:
    """Restore pairwise ``> k`` head separation after structural change.

    Growth (and edge arrivals generally) can only *shorten* distances, so
    two heads that were independent can drift within ``k`` hops of each
    other — which is exactly the condition under which a virtual link's
    canonical path can cross a third head and the backbone stage rejects
    the clustering.  This is the local merge response: in each pass, for
    every conflicting head pair the lower ID keeps its cluster (the
    paper's min-ID priority idiom) and the higher is demoted; the
    demoted cluster's nodes re-admit to a surviving head within ``k``
    through the membership policy, or re-declare when none is in range.
    A freshly declared node is ``> k`` from every head at that moment,
    so each pass strictly shrinks the conflict set and the loop
    terminates.

    Returns ``clustering`` itself when no conflict exists (the cheap
    common case: one multi-source BFS of depth ``k`` from the heads).
    Cover is preserved: every node ends within ``k`` of its head.
    """
    graph = clustering.graph
    k = clustering.k
    indptr, indices = graph.csr_adjacency
    policy = resolve_membership(clustering.membership_name)
    head_of = [int(h) for h in clustering.head_of]
    heads = [int(h) for h in clustering.heads]
    merges = 0
    with span("cluster.merge", n=graph.n, k=k):
        while True:
            harr = np.asarray(heads, dtype=np.int64)
            block = multi_source_bfs(
                indptr, indices, graph.n, harr, max_depth=k
            )
            demoted: set[int] = set()
            for i, h in enumerate(heads):
                if h in demoted:
                    continue
                for j in range(i + 1, len(heads)):
                    h2 = heads[j]
                    if h2 not in demoted and block[i, h2] <= k:
                        demoted.add(h2)
            if not demoted:
                break
            merges += len(demoted)
            survivors = [h for h in heads if h not in demoted]
            index_of = {h: i for i, h in enumerate(heads)}
            sizes = {h: 0 for h in survivors}
            for u, h in enumerate(head_of):
                if h in sizes and u != h:
                    sizes[h] += 1
            for h in survivors:
                sizes[h] += 1
            orphans = [u for u in range(graph.n) if head_of[u] in demoted]
            declared: list[int] = []
            declared_balls: dict[int, np.ndarray] = {}
            for u in orphans:
                cands = [
                    h for h in survivors if block[index_of[h], u] <= k
                ]
                cdists = [int(block[index_of[h], u]) for h in cands]
                for h in declared:
                    if declared_balls[h][u] <= k:
                        cands.append(h)
                        cdists.append(int(declared_balls[h][u]))
                if not cands:
                    head_of[u] = u
                    declared.append(u)
                    declared_balls[u] = multi_source_bfs(
                        indptr,
                        indices,
                        graph.n,
                        np.asarray([u], dtype=np.int64),
                        max_depth=k,
                    )[0]
                    sizes[u] = 1
                    continue
                ctx = JoinContext(
                    node=u,
                    candidates=cands,
                    distances=cdists,
                    sizes=[sizes[h] for h in cands],
                )
                chosen = int(policy.choose(ctx))
                head_of[u] = chosen
                sizes[chosen] += 1
            heads = sorted(survivors + declared)
    if merges == 0:
        return clustering
    return Clustering(
        graph=graph,
        k=k,
        head_of=tuple(head_of),
        heads=tuple(heads),
        rounds=clustering.rounds,
        priority_name=clustering.priority_name,
        membership_name=clustering.membership_name,
    )


def _khop_cluster_scalar(
    graph: Graph, k: int, prio: PriorityScheme, policy: MembershipPolicy
) -> tuple[np.ndarray, list[int], int]:
    """The per-node reference engine (one ball query + ``min()`` per node)."""
    keys = prio.keys(graph)
    if len(keys) != graph.n:
        raise InvalidParameterError("priority scheme returned wrong key count")

    n = graph.n
    head_of = np.full(n, -1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    heads: list[int] = []
    # All distance queries go through the graph's oracle as closed k-balls,
    # so only O(ball) work/memory per node is ever done — the lazy backend
    # never materializes the O(n²) matrix.  Round 1 touches every node's
    # ball, so warm them all through the batched depth-limited kernel up
    # front (a no-op for already-cached balls, e.g. those inherited
    # across a churn removal).
    oracle = graph.oracle
    oracle.prepare_balls(range(n), k)
    rounds = 0

    while undecided.any():
        rounds += 1
        # --- declaration phase -------------------------------------------
        # A node declares iff it holds the best key among the undecided
        # nodes of its closed k-hop neighborhood.  Two declarers are always
        # more than k hops apart: closer pairs share a neighborhood and only
        # one of them can hold the minimum.
        new_heads: list[int] = []
        for u in np.flatnonzero(undecided).tolist():
            ball_nodes, _ = oracle.ball(u, k)
            contenders = ball_nodes[undecided[ball_nodes]]
            best = min(contenders.tolist(), key=lambda w: keys[w])
            if best == u:
                new_heads.append(u)
        if not new_heads:  # pragma: no cover - cannot happen (global min declares)
            raise AssertionError("clustering round produced no clusterhead")
        for h in new_heads:
            head_of[h] = h
            undecided[h] = False
            heads.append(h)

        # --- join phase ---------------------------------------------------
        # Every undecided node within k hops of a new head must join one.
        # Assignments run in increasing node-ID order so that the size-based
        # policy sees up-to-date cluster sizes.
        sizes = {h: 1 for h in new_heads}
        new_heads_arr = np.asarray(new_heads, dtype=np.intp)
        for u in np.flatnonzero(undecided).tolist():
            ball_nodes, ball_dists = oracle.ball(u, k)
            # which new heads fall inside u's ball (ball_nodes is sorted)
            pos = np.searchsorted(ball_nodes, new_heads_arr)
            pos_c = np.minimum(pos, len(ball_nodes) - 1)
            in_range = ball_nodes[pos_c] == new_heads_arr
            if not in_range.any():
                continue
            cands = new_heads_arr[in_range].tolist()
            cdists = ball_dists[pos_c[in_range]].tolist()
            ctx = JoinContext(
                node=u,
                candidates=cands,
                distances=[int(d) for d in cdists],
                sizes=[sizes[h] for h in cands],
            )
            chosen = policy.choose(ctx)
            if chosen not in sizes:
                raise InvalidParameterError(
                    f"membership policy {policy.name!r} chose non-candidate "
                    f"head {chosen} for node {u}"
                )
            head_of[u] = chosen
            undecided[u] = False
            sizes[chosen] += 1

    return head_of, heads, rounds


def _khop_cluster_batched(
    graph: Graph, k: int, prio: PriorityScheme, policy: MembershipPolicy
) -> tuple[np.ndarray, list[int], int]:
    """The vectorized engine: CSR key propagation + multi-source join BFS.

    Per round, O(k · m) word operations for declaration and one
    depth-limited bit-packed BFS from the new heads for the join — no
    per-node Python work except inside stateful membership policies.
    """
    n = graph.n
    indptr, indices = graph.csr_adjacency
    ranks = key_ranks(prio, graph)
    inf = np.int64(n)  # ranks are 0..n-1, so n is a safe +infinity

    head_of = np.full(n, -1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    heads: list[int] = []
    # Segment starts for the neighborhood-min reduction: reduceat cannot
    # represent the empty segments of isolated nodes, so reduce over the
    # nonzero-degree nodes only (isolated nodes keep +inf neighbor mins).
    degs = np.diff(indptr)
    nonzero = np.flatnonzero(degs > 0)
    seg_starts = indptr[nonzero]
    rounds = 0

    while undecided.any():
        rounds += 1
        # --- declaration: k relaxations of the undecided-key minimum ----- #
        val = np.where(undecided, ranks, inf)
        for _ in range(k):
            nbr_min = np.full(n, inf, dtype=np.int64)
            if indices.size:
                nbr_min[nonzero] = np.minimum.reduceat(val[indices], seg_starts)
            np.minimum(val, nbr_min, out=val)
        new_heads = np.flatnonzero(undecided & (val == ranks))
        if new_heads.size == 0:  # pragma: no cover - global min always wins
            raise AssertionError("clustering round produced no clusterhead")
        undecided[new_heads] = False
        head_of[new_heads] = new_heads
        heads.extend(new_heads.tolist())
        if not undecided.any():
            break

        # --- join: one depth-k BFS from the new heads ------------------- #
        # Isolated heads (e.g. dead self-elected nodes on post-churn
        # lifetime graphs) cover nobody; dropping them keeps the sweep's
        # frontier state proportional to the live heads.
        bfs_heads = new_heads[degs[new_heads] > 0]
        if bfs_heads.size == 0:
            continue
        block = multi_source_bfs(
            indptr, indices, n, bfs_heads, max_depth=k
        )
        # Finite entries are <= k by construction; a column with any
        # finite entry is a covered node.
        reached = block.min(axis=0) <= k
        join_nodes = np.flatnonzero(undecided & reached)
        if join_nodes.size == 0:
            continue
        sub = block[:, join_nodes]
        cand_head_idx, cand_node_idx = np.nonzero(sub <= k)
        # nonzero() is row-major (head-major); regroup node-major with the
        # head order preserved inside each node's segment.
        order = np.argsort(cand_node_idx, kind="stable")
        cand_node_idx = cand_node_idx[order]
        cand_heads = bfs_heads[cand_head_idx[order]]
        cand_dists = sub[cand_head_idx[order], cand_node_idx]
        counts = np.bincount(cand_node_idx, minlength=join_nodes.size)
        cand_indptr = np.zeros(join_nodes.size + 1, dtype=np.int64)
        np.cumsum(counts, out=cand_indptr[1:])
        chosen = policy.choose_batch(
            join_nodes, bfs_heads, cand_indptr, cand_heads, cand_dists
        )
        head_of[join_nodes] = chosen
        undecided[join_nodes] = False

    return head_of, heads, rounds
