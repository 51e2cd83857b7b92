"""Per-layer timing for the traced run, installed from outside ``src/``.

:class:`Layers` wraps each module's public entry points where they are
imported: every ``repro.*`` module attribute (and every tuple held in a
module-level dict, such as the pipeline's algorithm table) that is the
original function is rebound to a wrapper, and methods are wrapped on
their class.  A wrapper opens an ``repro.obs`` span named after the entry
point, so its timing lands in the same span tree as the spans the program
already emits (``cluster``, ``cds``, ``labels``, ``epoch``, ``repair``,
``service.event``, ...).  :meth:`Layers.uninstall` restores every
original.

Distance oracles and path oracles are tallied over every instance
created while installed: an instance adds its ``stats()`` when it is
collected, and the survivors add theirs when the tally closes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro import obs

#: (span name, module, qualified attribute) of every timed entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("net.topology.random_topology", "repro.net.topology", "random_topology"),
    ("net.graph.with_edge_delta", "repro.net.graph", "Graph.with_edge_delta"),
    ("net.graph.with_nodes", "repro.net.graph", "Graph.with_nodes"),
    ("net.graph.without_nodes", "repro.net.graph", "Graph.without_nodes"),
    ("net.paths.inherit_from", "repro.net.paths", "PathOracle.inherit_from"),
    (
        "net.paths.inherit_edge_delta",
        "repro.net.paths",
        "PathOracle.inherit_edge_delta",
    ),
    ("net.paths.inherit_node_add", "repro.net.paths", "PathOracle.inherit_node_add"),
    ("net.mobility.step", "repro.net.mobility", "RandomWaypoint.step"),
    (
        "net.mobility.snapshot_edges",
        "repro.net.mobility",
        "RandomWaypoint.snapshot_edges",
    ),
    (
        "net.mobility.snapshot_edge_delta",
        "repro.net.mobility",
        "snapshot_edge_delta",
    ),
    ("core.clustering.khop_cluster", "repro.core.clustering", "khop_cluster"),
    ("core.clustering.admit_nodes", "repro.core.clustering", "admit_nodes"),
    (
        "core.clustering.resolve_head_conflicts",
        "repro.core.clustering",
        "resolve_head_conflicts",
    ),
    ("core.pipeline.build_backbone", "repro.core.pipeline", "build_backbone"),
    ("core.neighbor.nc_neighbors", "repro.core.neighbor", "nc_neighbors"),
    ("core.neighbor.ancr_neighbors", "repro.core.neighbor", "ancr_neighbors"),
    (
        "core.virtual_graph.from_neighbor_map",
        "repro.core.virtual_graph",
        "VirtualGraph.from_neighbor_map",
    ),
    (
        "core.virtual_graph.metric_closure",
        "repro.core.virtual_graph",
        "VirtualGraph.metric_closure",
    ),
    ("core.lmst.lmst_selected_links", "repro.core.lmst", "lmst_selected_links"),
    ("core.mesh.mesh_selected_links", "repro.core.mesh", "mesh_selected_links"),
    ("core.gmst.gmst_selected_links", "repro.core.gmst", "gmst_selected_links"),
    ("cds.routing.inherit_from", "repro.cds.routing", "HeadRouter.inherit_from"),
    ("cds.verify.verify_backbone", "repro.cds.verify", "verify_backbone"),
    ("traffic.router.route_flows", "repro.traffic.router", "BatchRouter.route_flows"),
    ("traffic.load.measure_load", "repro.traffic.load", "measure_load"),
    (
        "maintenance.repair.degraded_repair",
        "repro.maintenance.repair",
        "degraded_repair",
    ),
    (
        "maintenance.repair.clustering_still_valid",
        "repro.maintenance.repair",
        "clustering_still_valid",
    ),
    (
        "maintenance.repair.delta_path_oracle",
        "repro.maintenance.repair",
        "delta_path_oracle",
    ),
    ("faults.delivery.deliver", "repro.faults.delivery", "deliver"),
    ("service.engine.apply", "repro.service.engine", "ServiceEngine.apply"),
    ("service.guards.run_guards", "repro.service.guards", "run_guards"),
    (
        "service.guards.check_csr_symmetry",
        "repro.service.guards",
        "check_csr_symmetry",
    ),
    ("service.guards.check_cover", "repro.service.guards", "check_cover"),
    ("service.guards.check_backbone", "repro.service.guards", "check_backbone"),
    ("service.checkpoint.append_event", "repro.service.checkpoint", "append_event"),
    (
        "service.checkpoint.write_checkpoint",
        "repro.service.checkpoint",
        "write_checkpoint",
    ),
    (
        "traffic.mobile.simulate_mobile_traffic",
        "repro.traffic.mobile",
        "simulate_mobile_traffic",
    ),
    ("analysis.sweep.run_cell", "repro.analysis.sweep", "run_cell"),
)

# Which end-to-end metric each layer should move, and where (the other
# workloads bypass the layer, so there the prediction is no change):
#   topology.*            setup_s @ route-5k; ops_per_s @ paper-sweep
#   graph.*, oracle.*     ops_per_s @ mobility-2k, serve-400
#   labels.*              ops_per_s, total_s @ route-5k
#   paths.*, cds.*        ops_per_s @ paper-sweep, mobility-2k, serve-400;
#                         setup_s @ route-5k
#   mobility.s            ops_per_s @ mobility-2k
#   cluster.*             ops_per_s @ mobility-2k, serve-400
#   headrouter.*          ops_per_s @ mobility-2k, serve-400
#   verify.s              ops_per_s @ paper-sweep
#   router.*, load.s      ops_per_s @ route-5k, serve-400
#   repair.*, delivery.*, guards.*, wal.s, checkpoint.*, service.*
#                         ops_per_s, total_s @ serve-400
#   mobile.self_s         ops_per_s @ mobility-2k
#   sweep.self_s          ops_per_s @ paper-sweep

#: Span groups whose outermost durations sum to one layer's busy time.
#: ``labels`` is the span the landmark oracle already emits.
BUSY_GROUPS: dict[str, tuple[str, ...]] = {
    "topology.s": ("net.topology.random_topology",),
    "graph.mutate_s": (
        "net.graph.with_edge_delta",
        "net.graph.with_nodes",
        "net.graph.without_nodes",
    ),
    "labels.s": ("labels",),
    "paths.inherit_s": (
        "net.paths.inherit_from",
        "net.paths.inherit_edge_delta",
        "net.paths.inherit_node_add",
    ),
    "mobility.s": (
        "net.mobility.step",
        "net.mobility.snapshot_edges",
        "net.mobility.snapshot_edge_delta",
    ),
    "cluster.s": (
        "core.clustering.khop_cluster",
        "core.clustering.admit_nodes",
        "core.clustering.resolve_head_conflicts",
    ),
    "cluster.admit_s": ("core.clustering.admit_nodes",),
    "cds.s": ("core.pipeline.build_backbone",),
    "cds.neighbor_s": ("core.neighbor.nc_neighbors", "core.neighbor.ancr_neighbors"),
    "cds.vlinks_s": (
        "core.virtual_graph.from_neighbor_map",
        "core.virtual_graph.metric_closure",
    ),
    "cds.select_s": (
        "core.lmst.lmst_selected_links",
        "core.mesh.mesh_selected_links",
        "core.gmst.gmst_selected_links",
    ),
    "headrouter.inherit_s": ("cds.routing.inherit_from",),
    "verify.s": ("cds.verify.verify_backbone",),
    "load.s": ("traffic.load.measure_load",),
    "repair.s": (
        "maintenance.repair.degraded_repair",
        "maintenance.repair.delta_path_oracle",
    ),
    "repair.cover_check_s": ("maintenance.repair.clustering_still_valid",),
    "delivery.s": ("faults.delivery.deliver",),
    "guards.s": ("service.guards.run_guards",),
    "guards.csr_s": ("service.guards.check_csr_symmetry",),
    "guards.cover_s": ("service.guards.check_cover",),
    "guards.backbone_s": ("service.guards.check_backbone",),
    "wal.s": ("service.checkpoint.append_event",),
    "checkpoint.s": ("service.checkpoint.write_checkpoint",),
}

#: Layers reported as self time: duration minus the timed layers inside.
SELF_GROUPS: dict[str, tuple[str, ...]] = {
    "router.s": ("traffic.router.route_flows",),
    "mobile.self_s": ("traffic.mobile.simulate_mobile_traffic",),
    "sweep.self_s": ("analysis.sweep.run_cell",),
}

#: Layers reported as the number of outermost calls.
CALL_GROUPS: dict[str, tuple[str, ...]] = {
    "graph.mutations": BUSY_GROUPS["graph.mutate_s"],
    "cluster.calls": ("core.clustering.khop_cluster",),
    "cds.calls": BUSY_GROUPS["cds.s"],
    "router.calls": SELF_GROUPS["router.s"],
}

#: Every span that counts as covered time when computing self times.
_LAYER_SPANS = frozenset(name for name, _, _ in ENTRY_POINTS) | {"labels"}

_REPAIR_ACTIONS = ("none", "gateway-reselect", "recluster", "degraded")


def _resolve(module: str, qualname: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _Tally:
    """Sums ``stats()`` over every instance of some classes.

    Membership is kept by id as well as by weak reference: the cyclic
    collector clears weak references before it runs finalizers.
    """

    def __init__(self) -> None:
        self.live: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self.ids: set[int] = set()
        self.totals: Counter[str] = Counter()
        self.open = True

    def track(self, obj: Any) -> None:
        self.live.add(obj)
        self.ids.add(id(obj))

    def add(self, obj: Any) -> None:
        if not self.open or id(obj) not in self.ids:
            return
        self.ids.discard(id(obj))
        st = obj.stats()
        for name in (
            "rows_computed",
            "row_hits",
            "rows_inherited",
            "rows_patched",
            "batched_sweeps",
            "label_entries",
            "paths_computed",
            "path_hits",
        ):
            self.totals[f"{st.backend}.{name}"] += int(getattr(st, name))
        if st.backend == "path-cache":
            self.totals["path-cache.paths_inherited"] += int(obj.paths_inherited)

    def close(self) -> Counter[str]:
        for obj in list(self.live):
            self.add(obj)
        self.open = False
        return self.totals


@dataclass
class _Patch:
    owner: Any
    key: Any
    original: Any
    kind: str  # "attr" | "item"

    def restore(self) -> None:
        if self.kind == "attr":
            if self.original is _MISSING:
                delattr(self.owner, self.key)
            else:
                setattr(self.owner, self.key, self.original)
        else:
            self.owner[self.key] = self.original


_MISSING = object()


class Layers:
    """Installs the entry-point wrappers and turns spans into metrics."""

    def __init__(self) -> None:
        self._patches: list[_Patch] = []
        self.counts: Counter[str] = Counter()
        self._stretch = [0.0, 0]
        self._tally = _Tally()

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        hooks: dict[str, Callable[[Any], None]] = {
            "net.topology.random_topology": self._on_topology,
            "cds.routing.inherit_from": self._on_head_inherit,
            "traffic.router.route_flows": self._on_routed,
            "maintenance.repair.degraded_repair": self._on_repair,
            "faults.delivery.deliver": self._on_delivery,
            "service.checkpoint.write_checkpoint": self._on_checkpoint,
        }
        for name, module, qualname in ENTRY_POINTS:
            owner, attr = _resolve(module, qualname)
            if isinstance(owner, type):
                self._wrap_method(owner, attr, name, hooks.get(name))
            else:
                self._wrap_function(getattr(owner, attr), name, hooks.get(name))
        self._track_oracles()

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            patch.restore()
        self._patches.clear()

    def _wrap_function(
        self, fn: Callable[..., Any], name: str, hook: Optional[Callable[[Any], None]]
    ) -> None:
        wrapper = _timed(fn, name, hook)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            space = vars(module)
            for key, value in list(space.items()):
                if key.startswith("__"):
                    continue
                if value is fn:
                    self._patches.append(_Patch(module, key, fn, "attr"))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    self._rebind_in_table(value, fn, wrapper)

    def _rebind_in_table(self, table: dict, fn: Any, wrapper: Any) -> None:
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is fn for v in value):
                self._patches.append(_Patch(table, key, value, "item"))
                table[key] = tuple(wrapper if v is fn else v for v in value)

    def _wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        hook: Optional[Callable[[Any], None]],
    ) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(_timed(raw.__func__, name, hook))
        else:
            replacement = _timed(raw, name, hook)
        self._patches.append(_Patch(cls, attr, raw, "attr"))
        setattr(cls, attr, replacement)

    def _track_oracles(self) -> None:
        from repro.net.labeling import LandmarkDistanceOracle
        from repro.net.oracle import (
            DenseDistanceOracle,
            DistanceOracle,
            LazyDistanceOracle,
        )
        from repro.net.paths import PathOracle

        tally = self._tally
        for cls in (
            DenseDistanceOracle,
            LazyDistanceOracle,
            LandmarkDistanceOracle,
            PathOracle,
        ):
            init = cls.__dict__["__init__"]

            @functools.wraps(init)
            def tracked_init(self: Any, *args: Any, _init: Any = init, **kw: Any) -> None:
                _init(self, *args, **kw)
                tally.track(self)

            self._patches.append(_Patch(cls, "__init__", init, "attr"))
            cls.__init__ = tracked_init  # type: ignore[misc]
        def collected(obj: Any) -> None:
            tally.add(obj)

        for cls in (DistanceOracle, PathOracle):
            self._patches.append(
                _Patch(cls, "__del__", cls.__dict__.get("__del__", _MISSING), "attr")
            )
            cls.__del__ = collected  # type: ignore[attr-defined]

    # -- result hooks ---------------------------------------------------- #

    def _on_topology(self, topo: Any) -> None:
        self.counts["topology.draws"] += int(topo.attempts)

    def _on_head_inherit(self, stats: dict[str, int]) -> None:
        self.counts["headrouter.trees_inherited"] += int(stats["trees"])
        self.counts["headrouter.walks_inherited"] += int(stats["head_walks"])

    def _on_routed(self, routed: Any) -> None:
        if routed.shortest.size == 0:
            return
        ok = routed.shortest > 0
        if routed.valid is not None:
            ok &= routed.valid
        self._stretch[0] += float(
            (routed.hops[ok] / routed.shortest[ok].astype(np.float64)).sum()
        )
        self._stretch[1] += int(ok.sum())

    def _on_repair(self, outcome: Any) -> None:
        self.counts[f"repair.{outcome.action}"] += 1

    def _on_delivery(self, report: Any) -> None:
        self.counts["delivery.attempts"] += int(report.attempts.sum())
        self.counts["delivery.lost"] += int(report.lost_packets)

    def _on_checkpoint(self, path: Any) -> None:
        self.counts["checkpoint.bytes"] += int(path.stat().st_size)

    # -- metrics --------------------------------------------------------- #

    def metrics(self, root: obs.Span) -> dict[str, float]:
        """Per-layer metrics of one traced pass rooted at ``root``."""
        out: dict[str, float] = {}
        for metric, names in BUSY_GROUPS.items():
            out[metric] = sum(s.duration for s in _outermost(root, names))
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum(_self_time(s) for s in _outermost(root, names))
        for metric, names in CALL_GROUPS.items():
            out[metric] = float(len(_outermost(root, names)))
        counts = self.counts
        for name in (
            "topology.draws",
            "headrouter.trees_inherited",
            "headrouter.walks_inherited",
            "delivery.attempts",
            "delivery.lost",
            "checkpoint.bytes",
        ):
            out[name] = float(counts[name])
        for action in _REPAIR_ACTIONS:
            out[f"repair.{action}"] = float(counts[f"repair.{action}"])
        total, routed = self._stretch
        out["router.stretch_mean"] = total / routed if routed else 0.0
        out.update(self._oracle_metrics())
        out["trace.unattributed_frac"] = (
            _self_time(root) / root.duration if root.duration > 0 else 0.0
        )
        return out

    def _oracle_metrics(self) -> dict[str, float]:
        t = self._tally.close()
        dist = ("dense", "lazy", "landmark")

        def total(field: str, backends: Iterable[str]) -> int:
            return sum(t[f"{b}.{field}"] for b in backends)

        rows = total("rows_computed", dist)
        hits = total("row_hits", dist)
        computed = t["path-cache.paths_computed"]
        path_hits = t["path-cache.path_hits"]
        return {
            "oracle.rows_computed": float(rows),
            "oracle.row_hit_frac": hits / (rows + hits) if rows + hits else 0.0,
            "oracle.rows_inherited": float(total("rows_inherited", dist)),
            "oracle.rows_patched": float(total("rows_patched", dist)),
            "oracle.batched_sweeps": float(total("batched_sweeps", dist)),
            "labels.entries": float(t["landmark.label_entries"]),
            "paths.computed": float(computed),
            "paths.hit_frac": (
                path_hits / (computed + path_hits) if computed + path_hits else 0.0
            ),
            "paths.inherited": float(t["path-cache.paths_inherited"]),
        }


def _timed(
    fn: Callable[..., Any], name: str, hook: Optional[Callable[[Any], None]]
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(out)
        return out

    return wrapper


def _outermost(root: obs.Span, names: Iterable[str]) -> list[obs.Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    wanted = frozenset(names)
    found: list[obs.Span] = []
    stack = [root]
    while stack:
        sp = stack.pop()
        if sp.name in wanted and sp is not root:
            found.append(sp)
            continue
        stack.extend(sp.children)
    return found


def _self_time(span: obs.Span) -> float:
    """``span``'s duration minus the nearest timed layers inside it.

    Program spans that are not layers (``mobility``, ``epoch``,
    ``service.event``, ...) are looked through, so a loop's self time is
    the time no timed entry point accounts for.
    """
    covered = 0.0
    stack = list(span.children)
    while stack:
        sp = stack.pop()
        if sp.name in _LAYER_SPANS:
            covered += sp.duration
        else:
            stack.extend(sp.children)
    return max(0.0, span.duration - covered)
