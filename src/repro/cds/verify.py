"""Backbone verification — the executable form of Theorems 1 and 2.

Checks that a produced backbone really is a **connected k-hop CDS**:

* the CDS node set induces a connected subgraph of ``G`` (Theorem 2's
  conclusion for the gateway algorithms);
* heads k-hop dominate every node (from the clustering);
* every selected virtual link is fully realized inside the CDS (its interior
  nodes are gateways), so the abstract cluster graph G' the theorems argue
  about actually exists in the network.

Every pipeline result in every test and benchmark passes through
:func:`verify_backbone` — reproduced numbers are only reported for verified
backbones.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from ..core.pipeline import BackboneResult
from ..errors import ValidationError
from ..net.graph import UNREACHABLE
from ..net.oracle import gather_csr_neighbors

__all__ = [
    "broken_link",
    "check_backbone_connected",
    "check_domination",
    "check_links_realized",
    "check_gateways_are_members",
    "verify_backbone",
]


def check_backbone_connected(result: BackboneResult) -> None:
    """Heads + gateways induce a connected subgraph of G."""
    if not result.clustering.graph.is_connected_subset(result.cds):
        raise ValidationError(
            f"{result.algorithm}: CDS of size {result.cds_size} is not "
            "connected in G"
        )


def check_domination(result: BackboneResult) -> None:
    """Every node is within k hops of some clusterhead.

    Computed as a union of per-head k-balls (cost scales with the covered
    region, not ``n × heads``).
    """
    k = result.clustering.k
    covered = result.clustering.graph.within_mask(result.heads, k)
    if not covered.all():
        u = int(np.flatnonzero(~covered)[0])
        raise ValidationError(
            f"{result.algorithm}: node {u} is more than k={k} hops "
            "from every clusterhead"
        )


def broken_link(result: BackboneResult, *, shortest: bool = False) -> Optional[str]:
    """Why the first unrealized selected link fails, or None if all hold.

    Links are examined in sorted order; for each, every consecutive path
    pair must be a ``G``-edge, every interior node a gateway and, with
    ``shortest``, the path a shortest one.  All links are answered
    together: one gather of the CSR rows of every step's first node,
    matched against the step's second; one gateway mask over the
    interiors; and, with ``shortest``, one ``pair_distances`` call for
    every link's endpoints.  The cost follows the paths, not the graph.
    The message is only built for a failing link.
    """
    links = sorted(result.selected_links)
    if not links:
        return None
    g = result.clustering.graph
    n = g.n
    distances = g.oracle.pair_distances(links) if shortest else None
    paths = [result.virtual_graph.link(a, b).path for a, b in links]
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    nodes = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())
    )
    owner = np.repeat(np.arange(len(paths)), lengths)
    last = np.cumsum(lengths) - 1
    valid = (nodes >= 0) & (nodes < n)
    # Path steps: every position but a path's last starts one.  A step
    # with an out-of-range node is never an edge.
    starts = np.ones(nodes.size, dtype=bool)
    starts[last] = False
    at = np.flatnonzero(starts)
    checkable = np.flatnonzero(valid[at] & valid[at + 1])
    nbrs, degs = gather_csr_neighbors(*g.csr_adjacency, nodes[at[checkable]])
    step = np.repeat(checkable, degs)
    step_ok = np.zeros(at.size, dtype=bool)
    step_ok[step[nbrs == nodes[at[step] + 1]]] = True
    # Interiors: every position but a path's first and last.
    inner = starts.copy()
    inner[last - lengths + 1] = False
    inner_nodes, inner_owner = nodes[inner], owner[inner]
    gateway = np.zeros(n, dtype=bool)
    gw = np.fromiter(result.gateways, dtype=np.int64, count=len(result.gateways))
    gateway[gw[(gw >= 0) & (gw < n)]] = True
    inner_ok = valid[inner] & gateway[np.where(valid[inner], inner_nodes, 0)]
    bad = np.zeros(len(paths), dtype=bool)
    bad[owner[at[~step_ok]]] = True
    bad[inner_owner[~inner_ok]] = True
    if distances is not None:
        bad |= (distances >= UNREACHABLE) | (distances != lengths - 1)
    if not bad.any():
        return None
    i = int(np.flatnonzero(bad)[0])
    a, b = links[i]
    broken = at[(owner[at] == i) & ~step_ok]
    if broken.size:
        j = int(broken[0])
        return f"virtual link {a}-{b} uses non-edge ({nodes[j]},{nodes[j + 1]})"
    missing = inner_nodes[(inner_owner == i) & ~inner_ok]
    if missing.size:
        return (
            f"link {a}-{b} interior nodes {sorted(set(missing.tolist()))} "
            "are not gateways"
        )
    assert distances is not None
    return (
        f"link {a}-{b} has weight {int(lengths[i]) - 1}, graph distance is "
        f"{int(distances[i])} — not a shortest path"
    )


def check_links_realized(result: BackboneResult) -> None:
    """Interiors of selected virtual links are all gateways; paths valid.

    Every link's hop weight must also equal its endpoints' graph
    distance (see :func:`broken_link`).
    """
    problem = broken_link(result, shortest=True)
    if problem is not None:
        raise ValidationError(f"{result.algorithm}: {problem}")


def check_gateways_are_members(result: BackboneResult) -> None:
    """Gateways are non-clusterhead nodes (members)."""
    heads = set(result.heads)
    bad = sorted(result.gateways & heads)
    if bad:
        raise ValidationError(
            f"{result.algorithm}: clusterheads {bad} were marked as gateways"
        )


def verify_backbone(result: BackboneResult) -> None:
    """Run the full battery of backbone checks (raises on first failure)."""
    check_gateways_are_members(result)
    check_links_realized(result)
    check_backbone_connected(result)
    check_domination(result)
