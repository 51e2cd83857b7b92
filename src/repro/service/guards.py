"""Runtime invariant guards for the long-lived service.

A one-shot experiment can afford to crash on a broken invariant — the
operator reruns it.  A service cannot: the contract here is that a
violated invariant becomes a **structured incident** plus a scoped
rebuild, never an unhandled exception.  The guards re-check, on the
whole live state, the same invariants the chaos harness asserts
offline.  Each is a few numpy passes over the graph's CSR arrays:

1. **CSR symmetry / edge coherence** (:func:`check_csr_symmetry`) —
   every CSR index is a node; the sorted forward arc keys ``u * n + v``
   equal the sorted reverse keys ``v * n + u`` (every arc paired with
   its reverse, multiplicities included); and the deduplicated
   ``u <= v`` keys equal the keys of the graph's edge array.  A CSR that
   fails this guard is reported alone: the other guards index through
   it, so they wait for the rebuilt graph.
2. **cover validity** (:func:`check_cover`, via
   :func:`~repro.maintenance.repair.clustering_still_valid`) — every
   alive node sits within ``k`` hops of its assigned head: the heads'
   k-balls (from the inherited ball cache) concatenate into sorted
   ``head * n + node`` keys, and one searchsorted join answers every
   survivor.
3. **backbone battery** (:func:`check_backbone`) — the verification
   battery the repair ladder runs before accepting a backbone,
   excluding dead nodes: gateways are members; every selected link's
   path steps are CSR arcs (one gather of the path nodes' CSR rows)
   and its interior nodes gateways (one mask); the CDS is connected
   within each graph component (one label-propagation pass over the
   CDS-induced CSR subgraph, graph components labelled only when the
   CDS falls into more than one piece); and every alive node is k-hop
   dominated (one boolean cover mask).

Nothing is sampled, restricted to the touched region or cached across
graphs: every guard re-derives its verdict from the full live state
each time it runs.  Failure messages are built only on the failure path.

:func:`run_guards` bundles all three and returns the incidents found
(empty list = healthy); the engine counts trips, logs each incident to
the run's incident log, and falls back to a scoped rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..core.clustering import Clustering
from ..core.pipeline import BackboneResult
from ..errors import ValidationError
from ..maintenance.repair import clustering_still_valid
from ..net.graph import Graph
from ..net.oracle import _dedupe_flat

__all__ = [
    "GuardIncident",
    "check_csr_symmetry",
    "check_cover",
    "check_backbone",
    "run_guards",
]


@dataclass(frozen=True)
class GuardIncident:
    """One detected invariant violation, ready for the incident log.

    Attributes:
        guard: which guard tripped (``csr`` / ``cover`` / ``backbone``).
        message: human-readable description of the violation.
        seq: event-log position of the event that exposed it.
        kind: that event's kind (diagnosis context).
    """

    guard: str
    message: str
    seq: int
    kind: str

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable incident record."""
        return {
            "type": "incident",
            "guard": self.guard,
            "message": self.message,
            "seq": self.seq,
            "kind": self.kind,
        }


def check_csr_symmetry(graph: Graph) -> Optional[str]:
    """CSR arrays round-trip to the normalized edge set; None if healthy."""
    n = graph.n
    indptr, indices = graph.csr_adjacency
    degs = np.diff(indptr)
    if (
        indptr.shape != (n + 1,)
        or indptr[0] != 0
        or indptr[-1] != indices.size
        or (degs < 0).any()
    ):
        return (
            f"CSR edge set diverges: indptr of shape {indptr.shape} does "
            f"not delimit {indices.size} arcs over n={n} nodes"
        )
    rows = np.repeat(np.arange(n, dtype=np.int64), degs)
    stray = (indices < 0) | (indices >= n)
    if stray.any():
        i = int(np.flatnonzero(stray)[0])
        return (
            f"CSR adjacency asymmetric: arc ({rows[i]}, {indices[i]}) has "
            f"no reverse (index out of range for n={n})"
        )
    keys = rows * n + indices
    fwd = np.sort(keys)
    rev = np.sort(indices * n + rows)
    if not np.array_equal(fwd, rev):
        i = int(np.flatnonzero(fwd != rev)[0])
        if fwd[i] < rev[i]:  # arc fwd[i] outnumbers its reverse
            u, v = divmod(int(fwd[i]), n)
        else:  # the reverse of arc rev[i] outnumbers it
            v, u = divmod(int(rev[i]), n)
        return f"CSR adjacency asymmetric: arc ({u}, {v}) has no reverse"
    realized = _dedupe_flat(keys[rows <= indices])
    pairs = graph.edge_array
    lo, hi = pairs[:, 0], pairs[:, 1]
    if bool(((lo >= 0) & (lo < hi) & (hi < n)).all()) and np.array_equal(
        realized, _dedupe_flat(lo * n + hi)
    ):
        return None
    arcs = {(int(k) // n, int(k) % n) for k in realized}
    edges = set(zip(lo.tolist(), hi.tolist()))
    missing = sorted(edges - arcs)[:3]
    extra = sorted(arcs - edges)[:3]
    return f"CSR edge set diverges: missing={missing} extra={extra}"


def check_cover(
    clustering: Clustering, graph: Graph, dead: set[int]
) -> Optional[str]:
    """Every alive node within ``k`` of its head; None if healthy."""
    if clustering_still_valid(clustering, graph, exclude=dead):
        return None
    return (
        f"cover violated: an alive node is more than k={clustering.k} "
        "hops from its assigned head"
    )


def check_backbone(
    backbone: BackboneResult, dead: set[int]
) -> Optional[str]:
    """The repair ladder's verification battery; None if healthy.

    CDS connectivity is required per graph component, not globally: a
    disconnected graph (an islanded arrival, a partition) is an expected
    environmental condition the service keeps serving through, while a
    CDS split *inside* one component is still an engine bug.
    """
    from ..maintenance.repair import _excluded_nodes, _verify_excluding

    try:
        _verify_excluding(
            backbone,
            _excluded_nodes(backbone.clustering) | dead,
            per_component=True,
        )
    except ValidationError as exc:
        return f"backbone battery failed: {exc}"
    return None


def run_guards(
    graph: Graph,
    clustering: Clustering,
    backbone: Optional[BackboneResult],
    dead: set[int],
    *,
    seq: int,
    kind: str,
) -> list[GuardIncident]:
    """Run every guard against the live state; empty list = healthy.

    ``backbone=None`` (degraded mode, e.g. after a partition) skips the
    backbone battery — cover and CSR guards still run.  A failed CSR
    guard returns its incident alone: the cover and backbone guards
    gather through the CSR arrays and would index past corrupt ones.
    """
    msg = check_csr_symmetry(graph)
    if msg is not None:
        return [GuardIncident("csr", msg, seq, kind)]
    incidents: list[GuardIncident] = []
    msg = check_cover(clustering, graph, dead)
    if msg is not None:
        incidents.append(GuardIncident("cover", msg, seq, kind))
    if backbone is not None:
        msg = check_backbone(backbone, dead)
        if msg is not None:
            incidents.append(GuardIncident("backbone", msg, seq, kind))
    return incidents
