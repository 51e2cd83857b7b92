"""LMSTGA — the LMST-based gateway algorithm (§3.2, the paper's core).

Li, Hou and Sha's LMST topology control is lifted to the virtual graph:
every clusterhead ``u`` builds a *local* minimum spanning tree over its
virtual "1-hop" neighborhood — itself plus its neighbor clusterheads, with
every virtual link known between members of that set — and keeps only the
links to its **on-tree neighbors** (heads adjacent to ``u`` in ``u``'s local
MST).  The union of all kept links connects the cluster graph (Theorem 2),
and only the interior nodes of kept links are marked as gateways.

Link weights use the strict total order ``(hops, min_id, max_id)`` (see
:mod:`repro.core.virtual_graph`), so each local MST is unique and the
induction of Theorem 2 ("every strictly smaller link is already connected")
applies verbatim.

The information needed by each head — its neighbor set ``S`` and every
neighbor's ``S`` and distances (algorithm lines 7-8) — is available within
2k+1 hops, so the algorithm is localized; the distributed realization lives
in :mod:`repro.sim.protocols.gateway`.
"""

from __future__ import annotations

from ..types import Edge, NodeId, normalize_edge
from .virtual_graph import VirtualGraph, _kruskal

__all__ = ["local_mst_edges", "lmst_selected_links", "lmst_gateways"]


def local_mst_edges(vgraph: VirtualGraph, head: NodeId) -> set[Edge]:
    """The MST of ``head``'s local view of the virtual graph.

    The local view contains ``head`` and its virtual-link neighbors, plus
    every virtual link joining two members of that set (heads learn their
    neighbors' neighbor sets via the line-7 broadcast).  The view is always
    connected: every neighbor links directly to ``head``.
    """
    view = {head, *vgraph.neighbors(head)}
    edges: list[tuple[tuple[int, int, int], Edge]] = []
    for a in sorted(view):
        for b in vgraph.neighbors(a):
            if b in view and a < b:
                link = vgraph.link(a, b)
                edges.append((link.order_key(), (a, b)))
    return _kruskal(view, edges)


def lmst_selected_links(vgraph: VirtualGraph) -> set[Edge]:
    """Links kept by LMSTGA: each head's on-tree incident links, unioned.

    A link ``(u, v)`` is kept as soon as *either* endpoint has it on its
    local MST — matching LMST's directed "u selects v" semantics followed by
    the union that gateway marking performs (node u marks the path to every
    on-tree neighbor it selected).
    """
    selected: set[Edge] = set()
    for h in vgraph.heads:
        for a, b in local_mst_edges(vgraph, h):
            if h in (a, b):
                selected.add(normalize_edge(a, b))
    return selected


def lmst_gateways(vgraph: VirtualGraph) -> frozenset[int]:
    """Gateways of LMSTGA: interiors of the selected on-tree links."""
    return vgraph.gateways_for(lmst_selected_links(vgraph))
