"""End-to-end backbone construction pipelines (the five evaluated algorithms).

The simulation section compares **NC-Mesh, AC-Mesh, NC-LMST, AC-LMST** and
the centralized **G-MST** lower bound.  Each pipeline is

    k-hop clustering  ->  neighbor rule (NC | AC)  ->  gateway algorithm
    (Mesh | LMST)     or  the global G-MST shortcut,

and yields a :class:`BackboneResult` holding the clustering, the selected
virtual links, the gateway set and the resulting k-hop CDS.  All pipelines
reuse one clustering and one :class:`~repro.net.paths.PathOracle`, so
algorithm comparisons on the same instance are paired (same clusters, same
canonical paths), mirroring the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..errors import InvalidParameterError
from ..net.graph import Graph
from ..net.paths import PathOracle
from ..obs import span
from ..net.topology import Topology
from ..types import Edge, NodeId
from .clustering import Clustering, khop_cluster
from .gmst import gmst_selected_links
from .lmst import lmst_selected_links
from .membership import MembershipPolicy
from .mesh import mesh_selected_links
from .neighbor import NeighborMap, ancr_neighbors, nc_neighbors
from .priorities import PriorityScheme
from .virtual_graph import VirtualGraph

__all__ = [
    "BackboneResult",
    "ALGORITHMS",
    "algorithm_names",
    "build_backbone",
    "build_all_backbones",
    "run_pipeline",
]


@dataclass(frozen=True)
class BackboneResult:
    """A connected k-hop clustering backbone produced by one pipeline.

    Attributes:
        algorithm: registry name (e.g. ``"AC-LMST"``).
        clustering: the underlying k-hop clustering.
        neighbor_map: head -> neighbor heads (None for G-MST, which has no
            localized neighbor-selection phase).
        virtual_graph: the virtual graph the gateway stage ran on.
        selected_links: virtual links actually realized by gateways.
        gateways: the selected gateway (non-head) nodes.
    """

    algorithm: str
    clustering: Clustering
    neighbor_map: Optional[NeighborMap]
    virtual_graph: VirtualGraph
    selected_links: frozenset[Edge]
    gateways: frozenset[NodeId]

    @property
    def heads(self) -> tuple[NodeId, ...]:
        """Clusterhead IDs."""
        return self.clustering.heads

    @property
    def cds(self) -> frozenset[NodeId]:
        """The k-hop connected dominating set: heads plus gateways."""
        return frozenset(self.heads) | self.gateways

    @property
    def num_gateways(self) -> int:
        """Number of gateway nodes (the paper's primary metric)."""
        return len(self.gateways)

    @property
    def cds_size(self) -> int:
        """Size of the CDS (heads + gateways, the figures' y-axis)."""
        return len(self.cds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BackboneResult({self.algorithm}, heads={len(self.heads)}, "
            f"gateways={self.num_gateways})"
        )


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

_NeighborFn = Callable[[Clustering], NeighborMap]
_GatewayFn = Callable[[VirtualGraph], set[Edge]]

#: name -> (neighbor rule, link-selection function); G-MST is special-cased.
_LOCALIZED: Mapping[str, tuple[_NeighborFn, _GatewayFn]] = {
    "NC-Mesh": (nc_neighbors, mesh_selected_links),
    "AC-Mesh": (ancr_neighbors, mesh_selected_links),
    "NC-LMST": (nc_neighbors, lmst_selected_links),
    "AC-LMST": (ancr_neighbors, lmst_selected_links),
}

#: All algorithm names in the paper's plotting order.
ALGORITHMS: tuple[str, ...] = ("NC-Mesh", "AC-Mesh", "NC-LMST", "AC-LMST", "G-MST")


def algorithm_names() -> tuple[str, ...]:
    """The five algorithm names compared by the paper, plotting order."""
    return ALGORITHMS


def build_backbone(
    clustering: Clustering,
    algorithm: str,
    *,
    oracle: Optional[PathOracle] = None,
) -> BackboneResult:
    """Run the neighbor-selection + gateway stage of one algorithm.

    Args:
        clustering: a validated k-hop clustering of a connected graph.
        algorithm: one of :data:`ALGORITHMS`.
        oracle: optional shared path oracle (created if omitted).
    """
    # `or` would discard an *empty* caller oracle (PathOracle defines
    # __len__, so a fresh one is falsy) — inherit-then-build flows hand
    # those in deliberately.
    oracle = oracle if oracle is not None else PathOracle(clustering.graph)
    with span("cds", algorithm=algorithm):
        if algorithm == "G-MST":
            vgraph = VirtualGraph.metric_closure(clustering, oracle)
            selected = gmst_selected_links(vgraph)
            return BackboneResult(
                algorithm=algorithm,
                clustering=clustering,
                neighbor_map=None,
                virtual_graph=vgraph,
                selected_links=frozenset(selected),
                gateways=vgraph.gateways_for(selected),
            )
        try:
            neighbor_fn, link_fn = _LOCALIZED[algorithm]
        except KeyError:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; known: {list(ALGORITHMS)}"
            ) from None
        nmap = neighbor_fn(clustering)
        vgraph = VirtualGraph.from_neighbor_map(clustering, nmap, oracle)
        selected = link_fn(vgraph)
        return BackboneResult(
            algorithm=algorithm,
            clustering=clustering,
            neighbor_map=nmap,
            virtual_graph=vgraph,
            selected_links=frozenset(selected),
            gateways=vgraph.gateways_for(selected),
        )


def build_all_backbones(
    clustering: Clustering,
    algorithms: tuple[str, ...] = ALGORITHMS,
    *,
    oracle: Optional[PathOracle] = None,
) -> dict[str, BackboneResult]:
    """Run several algorithms on one clustering, sharing the path oracle."""
    # `or` would discard an *empty* caller oracle (PathOracle defines
    # __len__, so a fresh one is falsy) — inherit-then-build flows hand
    # those in deliberately.
    oracle = oracle if oracle is not None else PathOracle(clustering.graph)
    return {a: build_backbone(clustering, a, oracle=oracle) for a in algorithms}


def run_pipeline(
    network: "Graph | Topology",
    k: int,
    algorithm: str = "AC-LMST",
    *,
    priority: "PriorityScheme | str | None" = None,
    membership: "MembershipPolicy | str | None" = None,
) -> BackboneResult:
    """One-call convenience API: cluster a network and build a backbone.

    This is the quickstart entry point::

        from repro import run_pipeline, random_topology
        topo = random_topology(100, degree=6, seed=42)
        result = run_pipeline(topo, k=2, algorithm="AC-LMST")
        print(result.num_gateways, result.cds_size)

    Args:
        network: a :class:`~repro.net.graph.Graph` or
            :class:`~repro.net.topology.Topology`.
        k: cluster radius (>= 1).
        algorithm: one of :data:`ALGORITHMS` (default the paper's best,
            AC-LMST).
        priority: clusterhead priority scheme (default lowest-ID).
        membership: join policy (default ID-based).

    Hop distances come from the graph's own backend; pin it beforehand
    with :meth:`~repro.net.graph.Graph.use_distance_backend`.
    """
    graph = network.graph if isinstance(network, Topology) else network
    clustering = khop_cluster(graph, k, priority=priority, membership=membership)
    return build_backbone(clustering, algorithm)
