"""G-MST — the centralized global-MST baseline (§4's lower-bound curve).

A global minimum spanning tree is computed over the **metric closure** of
the clusterheads (every head pair, weighted by hop distance, with the same
``(hops, min_id, max_id)`` total order as everywhere else); the interior
nodes of the chosen canonical paths become gateways.  The paper uses this
centralized scheme as the lower-bound comparator: "G-MST has a constant
approximation ratio to the optimal k-hop CDS for a constant k".

:meth:`~repro.core.virtual_graph.VirtualGraph.metric_closure` weighs every
head pair but realizes only the tree's ``h - 1`` links as canonical paths,
so the virtual graph G-MST runs on *is* its MST and
:func:`gmst_selected_links` returns all of its links.  The strict order
makes the tree unique, so the links and gateways are those of the MST of
the full closure.

This is *not* a localized algorithm — it needs global topology knowledge —
which is exactly why the paper builds A-NCR + LMSTGA instead.
"""

from __future__ import annotations

from ..net.paths import PathOracle
from ..types import Edge
from .clustering import Clustering
from .virtual_graph import VirtualGraph

__all__ = ["gmst_selected_links", "gmst_gateways", "gmst_virtual_graph"]


def gmst_virtual_graph(clustering: Clustering, oracle: PathOracle) -> VirtualGraph:
    """The virtual graph G-MST runs on: the metric closure's MST."""
    return VirtualGraph.metric_closure(clustering, oracle)


def gmst_selected_links(vgraph: VirtualGraph) -> set[Edge]:
    """Every link of G-MST's virtual graph, which is already the MST.

    The name stays because the traced benchmark run
    (``perfbench/layers.py``) wraps it by name.
    """
    return {(link.u, link.v) for link in vgraph.links()}


def gmst_gateways(vgraph: VirtualGraph) -> frozenset[int]:
    """Gateways of G-MST: interiors of the global MST's links."""
    return vgraph.gateways_for(gmst_selected_links(vgraph))
