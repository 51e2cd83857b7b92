"""Node-failure handling (§3.3): role-dependent local repair.

The paper distinguishes three cases when a node "disappears":

* **member** (non-head, non-gateway) — "nothing needs to be done with
  respect to the existing CDS";
* **gateway** — "only the corresponding clusterhead needs to re-run the
  gateway selection process (to have a local fix)";
* **clusterhead** — "the clusterhead selection process is applied".

:func:`repair` implements exactly that escalation ladder and *validates*
each cheap fix before accepting it: removing a member can, in sparse
topologies, stretch another member's head distance beyond k (its only
k-hop path relayed through the failed node), in which case the repair
escalates to re-clustering and says so.  Every accepted repair is verified
(backbone connected, k-hop domination of survivors) on the post-failure
graph.

Failed nodes stay in the graph as isolated vertices (node numbering is
preserved for comparability); they are excluded from clusters, backbones
and all validity checks.

The returned :class:`RepairOutcome` reports the *scope* a real deployment
would touch (which clusterheads re-ran selection); the maintenance
benchmark aggregates this into the paper's locality argument: "Since the
number of clusterheads is relatively small ... the chance of re-applying
the clusterhead selection process is also small."
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.clustering import Clustering, group_by_assignment, khop_cluster
from ..core.pipeline import _LOCALIZED, BackboneResult, build_backbone
from ..core.virtual_graph import VirtualGraph, VirtualLink
from ..cds.verify import check_gateways_are_members
from ..errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    PartitionError,
    RepairError,
    ValidationError,
)
from ..net.graph import Graph
from ..net.oracle import gather_csr_neighbors
from ..net.paths import PathOracle
from ..obs import counter as obs_counter
from ..obs import span
from ..types import NodeId

__all__ = [
    "RepairOutcome",
    "failure_role",
    "repair",
    "degraded_repair",
    "ensure_survivors_connected",
    "clustering_still_valid",
    "delta_path_oracle",
]


@dataclass(frozen=True)
class RepairOutcome:
    """Result of handling one node failure.

    Attributes:
        failed_node: the node that disappeared.
        role: its role at failure time (``member`` / ``gateway`` / ``head``).
        action: what the repair did: ``"none"`` (CDS untouched),
            ``"gateway-reselect"``, ``"recluster"``, ``"partition"``, or
            ``"degraded"`` (:func:`degraded_repair` only: component-local
            backbones on a partitioned survivor graph).
        escalated: True when a cheap fix failed validation and the repair
            fell back to a more global action than §3.3 promises.
        scope_heads: clusterheads whose local state had to change.
        partitioned: the failure disconnected the network (no single
            backbone can span it; caller must handle components).
        backbone: the repaired, verified backbone (None when partitioned
            and not degraded).
        spliced: the accepted backbone reused the old structure instead
            of a pipeline rebuild — the member fast path, or the gateway
            splice that re-derives only the virtual links routed through
            the dead gateway.
        degraded: the backbone is component-local (see
            :func:`degraded_repair`); cross-component flows are
            unroutable and walks on it must be treated as degraded-mode.
        components: the surviving connected components when
            ``partitioned`` (largest first); empty otherwise.
    """

    failed_node: NodeId
    role: str
    action: str
    escalated: bool
    scope_heads: frozenset[NodeId]
    partitioned: bool
    backbone: Optional[BackboneResult]
    spliced: bool = False
    degraded: bool = False
    components: tuple[tuple[int, ...], ...] = ()

    @property
    def locality(self) -> float:
        """Fraction of surviving clusterheads untouched (1.0 = fully local)."""
        if self.backbone is None:
            return 0.0
        total = len(self.backbone.heads)
        if total == 0:
            return 1.0
        return 1.0 - len(self.scope_heads & set(self.backbone.heads)) / total


def failure_role(backbone: BackboneResult, node: NodeId) -> str:
    """Classify ``node`` as ``"head"``, ``"gateway"`` or ``"member"``."""
    if node in set(backbone.heads):
        return "head"
    if node in backbone.gateways:
        return "gateway"
    return "member"


def _excluded_nodes(clustering: Clustering) -> set[NodeId]:
    """Phantom nodes of earlier failures: self-assigned but not heads.

    Repairs can be chained (the returned backbone fed into the next
    :func:`repair` call); dead nodes stay in the graph as isolated,
    self-assigned, non-head vertices, and every later repair must keep
    ignoring them.
    """
    heads = set(clustering.heads)
    return {
        u
        for u in clustering.graph.nodes()
        if clustering.head_of[u] == u and u not in heads
    }


def _strip_nodes(
    clustering: Clustering, graph2: Graph, gone: set[NodeId]
) -> Clustering:
    """Clustering on the post-failure graph with ``gone`` nodes excluded."""
    head_of = list(clustering.head_of)
    for u in gone:
        head_of[u] = u
    heads = tuple(h for h in clustering.heads if h not in gone)
    return Clustering(
        graph=graph2,
        k=clustering.k,
        head_of=tuple(head_of),
        heads=heads,
        rounds=clustering.rounds,
        priority_name=clustering.priority_name,
        membership_name=clustering.membership_name,
    )


def _old_assignment_valid(
    clustering: Clustering, graph2: Graph, gone: set[NodeId]
) -> bool:
    """Do all survivors still sit within k hops of their (surviving) head?

    Checked head-centrically: one k-ball per surviving head (answered by
    the post-failure oracle, whose ball cache is inherited incrementally
    across failures) covers all of that head's members at once, instead of
    one pair query — a full BFS row on the lazy backend — per survivor.
    """
    k = clustering.k
    oracle = graph2.oracle
    # Group survivors by head in one stable-argsort pass over the
    # assignment array (the per-node Python sweep was a fixed per-failure
    # cost at scale), then cover each head's members with one k-ball.
    head_arr = np.asarray(clustering.head_of, dtype=np.int64)
    gone_mask = np.zeros(graph2.n, dtype=bool)
    if gone:
        gone_mask[np.fromiter(gone, dtype=np.intp, count=len(gone))] = True
    survivors = np.flatnonzero(~gone_mask)
    their_heads = head_arr[survivors]
    if gone_mask[their_heads].any():
        return False  # some survivor's head died
    order, uniq, bounds = group_by_assignment(their_heads)
    sorted_members = survivors[order]
    oracle.prepare_balls(uniq.tolist(), k)
    for i, h in enumerate(uniq.tolist()):
        members = sorted_members[bounds[i] : bounds[i + 1]]
        nodes, _ = oracle.ball(h, k)
        pos = np.searchsorted(nodes, members)
        if (pos >= nodes.size).any():
            return False
        if not (nodes[pos] == members).all():
            return False
    return True


def _verify_excluding(
    result: BackboneResult,
    excluded: set[NodeId],
    *,
    per_component: bool = False,
) -> None:
    """Backbone verification that ignores the dead nodes.

    With ``per_component=True`` the CDS-connectivity requirement is
    checked within each graph component instead of globally — the
    service guard's contract, where a disconnected *graph* (an islanded
    arrival, a partition served by degraded routing) is an expected
    environmental condition, while a CDS split inside one component is
    still an engine bug.
    """
    g = result.clustering.graph
    check_gateways_are_members(result)
    _check_links_alive(result)
    if per_component:
        cds = set(result.cds)
        for comp in g.connected_components():
            sub = cds & set(comp)
            if sub and not g.is_connected_subset(sub):
                raise ValidationError(
                    "repaired CDS is not connected within its component"
                )
    elif not g.is_connected_subset(result.cds):
        raise ValidationError("repaired CDS is not connected")
    k = result.clustering.k
    # Union of per-head k-balls (cache-friendly, output-sensitive) instead
    # of a pair query per survivor x head; missing balls batch through the
    # depth-limited multi-source kernel.
    g.oracle.prepare_balls(result.heads, k)
    covered = set(g.nodes_within(result.heads, k))
    for u in g.nodes():
        if u in excluded:
            continue
        if u not in covered:
            raise ValidationError(f"survivor {u} lost k-hop domination")


def _check_links_alive(result: BackboneResult) -> None:
    """Selected links still realized: edges alive, interiors are gateways.

    This is :func:`~repro.cds.verify.check_links_realized` minus the
    shortest-path re-derivation, which node removal makes redundant: the
    link weight equaled the graph distance when the backbone was built or
    last verified (canonical paths are shortest by construction), removal
    can only *increase* distances, and the stored path — whose edges are
    re-checked here — still realizes ``weight`` hops, pinning the new
    distance to exactly ``weight``.  Skipping the re-derivation keeps the
    per-failure cost at O(links · path length) instead of one BFS row per
    link endpoint.
    """
    g = result.clustering.graph
    for a, b in sorted(result.selected_links):
        link = result.virtual_graph.link(a, b)
        for x, y in zip(link.path, link.path[1:]):
            if not g.has_edge(x, y):
                raise ValidationError(
                    f"virtual link {a}-{b} uses non-edge ({x},{y})"
                )
        missing = set(link.interior) - result.gateways
        if missing:
            raise ValidationError(
                f"link {a}-{b} interior nodes {sorted(missing)} are not "
                "gateways"
            )


def _seeded_path_oracle(
    graph2: Graph, backbone: BackboneResult, gone: set[NodeId]
) -> PathOracle:
    """A path oracle for the post-failure graph, pre-seeded with every
    surviving virtual-link path of the old backbone.

    Stored link paths are the canonical head-to-head paths of the graph
    they were built on; a path avoiding every removed node stays
    canonical (removal only shrinks the min-ID predecessor candidate
    sets, never below the surviving choice), so rebuilding the virtual
    graph after a failure re-derives only the links the failure actually
    broke — the dominant per-repair cost at scale was recomputing the BFS
    rows behind all the unaffected links.
    """
    oracle = PathOracle(graph2)
    oracle.seed_paths(
        link.path
        for link in backbone.virtual_graph.links()
        if not gone.intersection(link.path)
    )
    return oracle


def _splice_gateway(
    backbone: BackboneResult,
    surviving: Clustering,
    graph2: Graph,
    gone: set[NodeId],
    node: NodeId,
) -> Optional[BackboneResult]:
    """Gateway death without a rebuild: re-derive only the broken links.

    §3.3 promises that for a gateway failure "only the corresponding
    clusterhead needs to re-run the gateway selection process", yet the
    ladder used to fall back to a full pipeline rebuild.  This splice
    keeps the clustering, the neighbor structure and the selected link
    set, and re-derives canonical paths *only* for the virtual links the
    dead gateway actually sat on.

    The reuse of ``selected_links`` is exact, not heuristic: the link
    pairs come from the unchanged clustering, and every re-derived path
    must realize the **same hop weight** as before — link order keys
    ``(hops, u, v)`` are therefore unchanged, so Mesh/LMST selection over
    the new virtual graph would pick the identical link set (the
    walk-identity test in ``tests/maintenance/test_repair.py`` asserts
    routed walks match the rebuild).  Any weight increase, a head
    appearing in a new interior, or a verification failure returns None
    and the caller falls back to the rebuild path.
    """
    head_set = set(surviving.heads)
    oracle = _seeded_path_oracle(graph2, backbone, gone)
    links: list[VirtualLink] = []
    try:
        for link in backbone.virtual_graph.links():
            # The old backbone was verified after every earlier failure,
            # so the only dead node a stored path can contain is `node`.
            if node not in link.path:
                links.append(link)
                continue
            path = oracle.path(link.u, link.v)
            if len(path) - 1 != link.weight:
                return None  # weight grew: selection could differ
            if any(w in head_set for w in path[1:-1]):
                return None
            links.append(VirtualLink(link.u, link.v, path))
        vgraph = VirtualGraph(surviving.heads, links)
        result = replace(
            backbone,
            clustering=surviving,
            virtual_graph=vgraph,
            gateways=vgraph.gateways_for(backbone.selected_links),
        )
        return _verify_and_accept(result, gone)
    except (DisconnectedGraphError, ValidationError):
        return None


def ensure_survivors_connected(graph: Graph, gone: set[NodeId]) -> None:
    """Raise :class:`PartitionError` unless survivors form one component.

    The typed boundary between "expected environmental condition" and
    "bug": fault-tolerant loops (chaos, degraded mobility) call this to
    turn a structural partition into a catchable, component-carrying
    exception instead of a downstream ValidationError.
    """
    if not _survivors_connected(graph, gone):
        # The component payload needs the dead nodes actually isolated —
        # on the caller's graph they may still be wired in, which would
        # merge components straight through the failure.
        reduced = graph.without_nodes(gone)
        comps = _surviving_components(reduced, gone)
        raise PartitionError(
            f"survivor graph has {len(comps)} components "
            f"(largest {len(comps[0]) if comps else 0} nodes)",
            components=comps,
        )


def _surviving_components(
    graph: Graph, gone: set[NodeId]
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the survivors, largest first.

    ``graph`` must already have the ``gone`` nodes isolated (their
    singletons are dropped here); ties keep discovery order, so the
    result is deterministic.
    """
    comps = [
        c for c in graph.connected_components() if not set(c) <= gone
    ]
    comps.sort(key=len, reverse=True)
    return tuple(comps)


def clustering_still_valid(
    clustering: Clustering, graph2: Graph, exclude: set[NodeId] = frozenset()
) -> bool:
    """Does ``clustering`` remain a k-hop clustering on ``graph2``?

    The §3.3 question generalized to *any* structural change: after an
    edge delta (mobility) or a removal, do all non-``exclude`` nodes
    still sit within ``k`` hops of their assigned (surviving) head?
    Checked head-centrically via one k-ball per head on ``graph2``'s
    oracle — whose ball cache inherits across deltas, so a snapshot that
    moved nothing near a cluster re-validates it from cache.

    This is the cheap gate a movement-sensitive maintenance policy runs
    before deciding whether a snapshot needs re-clustering at all; the
    stability simulation reports how often it passes.
    """
    return _old_assignment_valid(clustering, graph2, set(exclude))


def delta_path_oracle(
    graph2: Graph, old_oracle: PathOracle, touched
) -> PathOracle:
    """A path oracle for the post-delta graph, pre-seeded with every
    canonical path that provably survived the edge delta.

    The edge-delta analogue of :func:`_seeded_path_oracle`: survival is
    decided by :meth:`~repro.net.paths.PathOracle.inherit_edge_delta`'s
    valid-prefix rule (membership of the old path alone is not enough
    once edges can *appear*), so rebuilding the virtual graph after a
    snapshot re-derives only the links the motion actually disturbed.
    """
    oracle = PathOracle(graph2)
    oracle.inherit_edge_delta(old_oracle, touched)
    return oracle


def _verify_and_accept(
    result: BackboneResult, gone: set[NodeId]
) -> BackboneResult:
    """Run the excluded-node verification battery and return ``result``."""
    _verify_excluding(result, gone)
    return result


def _survivors_connected(graph2: Graph, gone: set[NodeId]) -> bool:
    """Whether the nodes outside ``gone`` form one connected component.

    A masked level-synchronous BFS over the CSR adjacency arrays: ``gone``
    nodes start out marked as seen so they neither enter a frontier nor
    count toward the reachable total, and each level is one vectorized
    gather over the frontier's CSR ranges — replacing the Python
    node-at-a-time sweep that dominated per-failure cost at scale.
    """
    n = graph2.n
    seen = np.zeros(n, dtype=bool)
    if gone:
        seen[np.fromiter(gone, dtype=np.intp, count=len(gone))] = True
    survivors = int(n - seen.sum())
    if survivors <= 1:
        return True
    indptr, indices = graph2.csr_adjacency
    root = int(np.flatnonzero(~seen)[0])
    seen[root] = True
    frontier = np.asarray([root], dtype=np.int64)
    reached = 1
    while frontier.size:
        nbrs, _ = gather_csr_neighbors(indptr, indices, frontier)
        if nbrs.size == 0:
            break
        nbrs = nbrs[~seen[nbrs]]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        seen[frontier] = True
        reached += frontier.size
    return reached == survivors


def repair(backbone: BackboneResult, node: NodeId) -> RepairOutcome:
    """Handle the disappearance of ``node`` per the §3.3 ladder.

    Each call is traced as a ``repair`` span and tallies the ladder
    outcome into the ``repair.actions.*`` / ``repair.spliced`` counters
    when the observability layer is enabled.

    Raises:
        InvalidParameterError: if ``node`` is not a node of the graph.
    """
    with span("repair", node=int(node)):
        outcome = _repair_ladder(backbone, node)
        obs_counter(f"repair.actions.{outcome.action}").add()
        if outcome.spliced:
            obs_counter("repair.spliced").add()
    return outcome


def _repair_ladder(backbone: BackboneResult, node: NodeId) -> RepairOutcome:
    """The untraced §3.3 escalation ladder behind :func:`repair`."""
    clustering = backbone.clustering
    graph = clustering.graph
    if not (0 <= node < graph.n):
        raise InvalidParameterError(f"node {node} out of range")
    role = failure_role(backbone, node)
    gone = _excluded_nodes(clustering) | {node}

    # Partition check runs on the *original* graph (the traversal already
    # skips ``gone`` nodes), so the reduced graph — pointless for this
    # outcome — is only constructed once a repair is actually attempted.
    if not _survivors_connected(graph, gone):
        return RepairOutcome(
            failed_node=node,
            role=role,
            action="partition",
            escalated=False,
            scope_heads=frozenset(backbone.heads),
            partitioned=True,
            backbone=None,
        )
    # An edge delta: patches CSR arrays and inherits the parent oracle's
    # still-valid cached rows/balls.
    graph2 = graph.without_nodes([node])

    # --- rungs 1 & 2: keep the clustering, maybe re-run gateways -------- #
    if role in ("member", "gateway") and _old_assignment_valid(
        clustering, graph2, gone
    ):
        surviving = _strip_nodes(clustering, graph2, gone)
        result = None
        spliced = False
        if role == "member":
            # §3.3: "nothing needs to be done with respect to the existing
            # CDS".  A failed member is neither a head nor a gateway, so no
            # selected virtual link loses a path node — the old backbone is
            # *spliced* onto the post-failure clustering unchanged and then
            # re-verified, instead of being rebuilt from scratch.
            try:
                result = _verify_and_accept(
                    replace(backbone, clustering=surviving), gone
                )
                spliced = True
            except ValidationError:
                result = None
        if result is None and role == "gateway":
            # §3.3's local fix, structurally: keep clustering, neighbor
            # structure and selected links; re-derive only the virtual
            # links routed through the dead gateway.
            result = _splice_gateway(backbone, surviving, graph2, gone, node)
            spliced = result is not None
        if result is None:
            try:
                result = build_backbone(
                    surviving,
                    backbone.algorithm,
                    oracle=_seeded_path_oracle(graph2, backbone, gone),
                )
                _verify_excluding(result, gone)
            except ValidationError:
                result = None
        if result is not None:
            if role == "member":
                action, scope = "none", frozenset()
            else:
                affected = {
                    h
                    for a, b in backbone.selected_links
                    if node in backbone.virtual_graph.link(a, b).interior
                    for h in (a, b)
                }
                action, scope = "gateway-reselect", frozenset(affected)
            return RepairOutcome(
                failed_node=node,
                role=role,
                action=action,
                escalated=False,
                scope_heads=scope,
                partitioned=False,
                backbone=result,
                spliced=spliced,
            )

    # --- rung 3: clusterhead election re-runs --------------------------- #
    reclustered = khop_cluster(
        graph2,
        clustering.k,
        membership=clustering.membership_name,
        require_connected=False,
    )
    # Isolated dead nodes elect themselves into phantom singleton
    # clusters; strip them before building the backbone.
    stripped = _strip_nodes(reclustered, graph2, gone)
    # The final rung must absorb any failure that leaves the survivors
    # connected; a verification failure here is a defect in the repair
    # machinery, not an environmental condition — surface it as the
    # typed bug class so callers can tell it apart from a partition.
    try:
        result = build_backbone(
            stripped,
            backbone.algorithm,
            oracle=_seeded_path_oracle(graph2, backbone, gone),
        )
        _verify_excluding(result, gone)
    except RepairError:
        raise
    except ValidationError as exc:
        raise RepairError(
            f"re-clustering rung produced an invalid backbone after "
            f"removing node {node} from a connected survivor graph: {exc}"
        ) from exc
    return RepairOutcome(
        failed_node=node,
        role=role,
        action="recluster",
        escalated=role != "head",
        scope_heads=frozenset(backbone.heads) | frozenset(result.heads),
        partitioned=False,
        backbone=result,
    )


def _verify_degraded(
    result: BackboneResult,
    excluded: set[NodeId],
    components: tuple[tuple[int, ...], ...],
) -> None:
    """The verification battery for a component-local (degraded) backbone.

    Same checks as :func:`_verify_excluding` except connectivity, which a
    partitioned graph can only satisfy *per component*: the CDS nodes
    inside each surviving component must form a connected subgraph, and
    every survivor must still be k-hop dominated by some head (heads are
    per-component, so domination never crosses a partition).
    """
    g = result.clustering.graph
    check_gateways_are_members(result)
    _check_links_alive(result)
    cds = set(result.cds)
    for comp in components:
        if not g.is_connected_subset(cds & set(comp)):
            raise ValidationError(
                f"degraded CDS is not connected inside component of "
                f"{len(comp)} survivors"
            )
    k = result.clustering.k
    g.oracle.prepare_balls(result.heads, k)
    covered = set(g.nodes_within(result.heads, k))
    for u in g.nodes():
        if u in excluded:
            continue
        if u not in covered:
            raise ValidationError(f"survivor {u} lost k-hop domination")


def degraded_repair(backbone: BackboneResult, node: NodeId) -> RepairOutcome:
    """The §3.3 ladder with a graceful floor under partition.

    Runs :func:`repair`; when the failure partitioned the survivor
    graph — where the plain ladder gives up with ``backbone=None`` —
    falls back to *component-local* operation instead: the survivors are
    re-clustered (``require_connected=False``), a backbone is built with
    the same localized algorithm (neighbor rules only pair heads within
    2k+1 hops, so virtual links never cross a partition), and the result
    is verified per component.  The returned outcome has
    ``action="degraded"``, ``degraded=True``, the surviving components,
    and a backbone on which same-component flows remain routable —
    cross-component flows must be filtered out by the caller (e.g. via
    the ``routable`` mask of :func:`repro.faults.delivery.deliver`).

    Raises:
        InvalidParameterError: for ``G-MST`` backbones — the metric
            closure needs all-pairs paths, which a partitioned graph
            cannot provide; degraded mode is restricted to the localized
            algorithms.
        RepairError: when the component-local pipeline itself produces an
            invalid backbone (a bug, not an environmental condition).
    """
    out = repair(backbone, node)
    if not out.partitioned:
        return out
    if backbone.algorithm not in _LOCALIZED:
        raise InvalidParameterError(
            f"degraded repair needs a localized algorithm, got "
            f"{backbone.algorithm!r} (known: {sorted(_LOCALIZED)})"
        )
    clustering = backbone.clustering
    graph = clustering.graph
    gone = _excluded_nodes(clustering) | {node}
    graph2 = graph.without_nodes([node])
    components = _surviving_components(graph2, gone)
    reclustered = khop_cluster(
        graph2,
        clustering.k,
        membership=clustering.membership_name,
        require_connected=False,
    )
    stripped = _strip_nodes(reclustered, graph2, gone)
    try:
        result = build_backbone(
            stripped,
            backbone.algorithm,
            oracle=_seeded_path_oracle(graph2, backbone, gone),
        )
        _verify_degraded(result, gone, components)
    except ValidationError as exc:
        raise RepairError(
            f"degraded repair produced an invalid component-local "
            f"backbone after removing node {node}: {exc}"
        ) from exc
    return RepairOutcome(
        failed_node=node,
        role=out.role,
        action="degraded",
        escalated=True,
        scope_heads=frozenset(backbone.heads) | frozenset(result.heads),
        partitioned=True,
        backbone=result,
        degraded=True,
        components=components,
    )
