"""The maintenance step: carry the live router across a structural change.

The service, mobility and lifetime loops end every structural change the
same way — a new backbone, and a router that keeps whatever of the old
router's caches still certifies.  :func:`carry_repair` follows a §3.3
repair, :func:`carry_delta` an edge delta; when clusterhead election
itself must re-run, the loops call
:func:`~repro.maintenance.repair.rebuild_survivors` instead.  Each carry
publishes its counters once, as ``router.inherit.*``.

:mod:`repro.traffic` imports this module, so the router class is
imported at call time, and neither :mod:`repro.maintenance.repair` nor
the package ``__init__`` imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from ..core.clustering import Clustering, resolve_head_conflicts
from ..core.pipeline import build_backbone
from ..errors import ValidationError
from ..obs import publish_counters
from ..types import NodeId
from .repair import RepairOutcome, delta_path_oracle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (traffic -> maintenance)
    from ..traffic.router import BatchRouter

__all__ = ["carry_repair", "carry_delta"]


def carry_repair(
    router: "BatchRouter", outcome: RepairOutcome
) -> tuple["BatchRouter", dict[str, int]]:
    """A router for ``outcome.backbone`` seeded from ``router``'s caches.

    Spliced and rebuilt backbones carry the same way: the head router's
    structural certificates keep exactly the trees, sequences and walks a
    cold router would recompute identically.  Returns the new router and
    its inheritance counters.
    """
    from ..traffic.router import BatchRouter

    router2 = BatchRouter(outcome.backbone)
    stats = router2.inherit_edge_delta(router, (outcome.failed_node,))
    publish_counters("router.inherit", stats)
    return router2, stats


def carry_delta(
    router: "BatchRouter", clustering: Clustering, touched: Collection[NodeId]
) -> tuple["BatchRouter", dict[str, int]]:
    """Rebuild the backbone of ``clustering`` and carry ``router`` onto it.

    ``clustering`` lives on the changed graph; ``touched`` holds an
    endpoint of every changed edge (appended nodes count implicitly).
    The canonical paths carry into one shared path oracle
    (:func:`~repro.maintenance.repair.delta_path_oracle`) before the
    backbone stage, so only links the delta disturbed re-derive.  An
    arrival or edge addition can pull two heads within ``k``, which the
    backbone stage rejects; the step then retries once on
    :func:`~repro.core.clustering.resolve_head_conflicts`, and the new
    router's ``result.clustering`` is the merged one.

    Returns the new router and its inheritance counters; ``paths``
    counts the paths carried before the backbone stage.

    Raises:
        ValidationError: the backbone stage rejected even the merged
            clustering.
    """
    from ..traffic.router import BatchRouter

    algorithm = router.result.algorithm
    paths = delta_path_oracle(clustering.graph, router.path_oracle, touched)
    carried = paths.paths_inherited
    try:
        backbone = build_backbone(clustering, algorithm, oracle=paths)
    except ValidationError:
        merged = resolve_head_conflicts(clustering)
        if merged is clustering:
            raise
        backbone = build_backbone(merged, algorithm, oracle=paths)
    router2 = BatchRouter(backbone, oracle=paths)
    stats = router2.inherit_edge_delta(router, touched)
    stats["paths"] = carried
    publish_counters("router.inherit", stats)
    return router2, stats
