"""The four benchmark workloads.

Each workload makes its inputs from the seed before any clock starts,
then one *pass* is: ``setup`` (timed as set-up), ``ops`` (the timed
operation phase, which times its own operations), and ``check`` (output
checks, untimed).  A pass's :class:`PassResult` carries a ``signature``
of work counts and quality metrics that must be identical on every pass
and every run of one commit and seed.

Timed calls go through module attributes (``topology.random_topology``,
``mobile.simulate_mobile_traffic``, ...) so the traced run's wrappers see
them; output checks call the functions imported directly here, which the
wrappers never replace.
"""

from __future__ import annotations

import shutil
import sys
import traceback
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.analysis import sweep
from repro.analysis.sweep import CellKey
from repro.cds.verify import verify_backbone
from repro.core.pipeline import run_pipeline
from repro.net import topology
from repro.service import ServiceConfig, ServiceEngine
from repro.service.events import seeded_schedule
from repro.traffic import load, mobile
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs

#: Service event kinds that change the graph or the backbone (writes).
STRUCTURAL = ("join", "leave", "move", "link_down", "link_up")

#: The paper sweep's base seed (``SweepConfig.base_seed``).
PAPER_SEED = 20050610

#: Per-layer values a pass reports itself (zero where the layer is idle).
PASS_LAYERS = (
    "service.rebuild_fallbacks",
    "service.backbone_rebuilds",
    "service.head_merges",
    "delivery.delivered_frac",
)


@dataclass
class Ops:
    """What the timed operation phase of one pass produced."""

    count: int
    seconds: float
    latencies: dict[str, list[float]] = field(default_factory=dict)
    output: Any = None


@dataclass
class PassResult:
    """Output checks and identity of one pass."""

    attempted: int
    failed: int
    cds_size: float
    signature: dict[str, Any]
    #: Per-layer values the pass knows without tracing (service counts).
    extras: dict[str, float] = field(default_factory=dict)


def _crc(value: Any) -> int:
    return zlib.crc32(repr(value).encode())


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def bad_walks(graph: Any, routed: Any) -> int:
    """Flows whose walk leaves its source, misses its target, or skips an edge."""
    walks = routed.walks
    lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
    flat = np.fromiter(
        chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum())
    )
    ends = np.cumsum(lengths)
    bad = lengths < 1
    ok = ~bad
    bad[ok] |= flat[(ends - lengths)[ok]] != routed.workload.sources[ok]
    bad[ok] |= flat[ends[ok] - 1] != routed.workload.targets[ok]
    owner = np.repeat(np.arange(len(walks)), lengths)
    step = owner[:-1] == owner[1:]
    a, b = flat[:-1][step], flat[1:][step]
    n = graph.n
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    known = edges.min(axis=1) * n + edges.max(axis=1)
    found = np.isin(np.minimum(a, b) * n + np.maximum(a, b), known)
    bad[owner[:-1][step][~found]] = True
    return int(bad.sum())


class Route5k:
    """Batched routing on a static backbone: the read path."""

    name = "route-5k"

    def __init__(self, quick: bool, out: Path) -> None:
        del out
        self.n, self.batches, self.flows = (
            (300, 6, 30) if quick else (5000, 100, 200)
        )
        self.degree, self.k, self.topo_seed = 8.0, 2, 7

    def inputs(self, seed: int) -> list[Any]:
        return [
            uniform_pairs(self.n, self.flows, seed=_seed(seed, b))
            for b in range(self.batches)
        ]

    def setup(self, inputs: Any) -> Any:
        topo = topology.random_topology(self.n, self.degree, seed=self.topo_seed)
        topo.graph.use_distance_backend("landmark")
        backbone = run_pipeline(topo.graph, self.k, "AC-LMST")
        return SimpleNamespace(topo=topo, backbone=backbone, router=BatchRouter(backbone))

    def setup_signature(self, st: Any) -> dict[str, Any]:
        return {"draws": st.topo.attempts, "cds_size": st.backbone.cds_size}

    def ops(self, st: Any, batches: list[Any]) -> Ops:
        lat: list[float] = []
        routed_all = []
        for wl in batches:
            t = perf_counter()
            routed = st.router.route_flows(wl, with_shortest=True)
            load.measure_load(st.backbone, routed)
            lat.append(perf_counter() - t)
            routed_all.append(routed)
        return Ops(
            count=self.batches * self.flows,
            seconds=sum(lat),
            latencies={"read": lat},
            output=routed_all,
        )

    def check(self, st: Any, batches: list[Any], ops: Ops) -> PassResult:
        attempted = self.batches * self.flows
        try:
            verify_backbone(st.backbone)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return PassResult(attempted, attempted, st.backbone.cds_size, {})
        failed = sum(bad_walks(st.topo.graph, r) for r in ops.output)
        hops = np.concatenate([r.hops for r in ops.output]).astype(np.float64)
        shortest = np.concatenate([r.shortest for r in ops.output])
        sig = {
            **self.setup_signature(st),
            "walks": _crc([r.walks for r in ops.output]),
            "stretch": float((hops[shortest > 0] / shortest[shortest > 0]).mean()),
            "oracle": asdict(st.topo.graph.oracle.stats()),
            "paths": asdict(st.router.path_oracle.stats()),
        }
        return PassResult(attempted, failed, st.backbone.cds_size, sig)


class Serve400:
    """The long-lived service: interleaved writes and reads with guards and WAL."""

    name = "serve-400"

    def __init__(self, quick: bool, out: Path) -> None:
        self.n, self.events, self.checkpoint_every = (
            (60, 40, 10) if quick else (400, 1000, 50)
        )
        self.deploy_seed = 7
        self.state_root = out / "serve-state"
        shutil.rmtree(self.state_root, ignore_errors=True)
        self._setups = 0

    def inputs(self, seed: int) -> Any:
        config = ServiceConfig(
            n=self.n,
            seed=self.deploy_seed,
            base_loss=0.05,
            checkpoint_every=self.checkpoint_every,
            guard_every=1,
            # The WAL lives in the checkout; fsync would put the disk's
            # latency into every event.  Checkpoints still fsync.
            fsync=False,
        )
        initial = topology.random_topology(config.n, config.degree, seed=config.seed)
        schedule = seeded_schedule(initial, events=self.events, seed=seed)
        return SimpleNamespace(config=config, schedule=schedule)

    def setup(self, inputs: Any) -> Any:
        self._setups += 1
        return ServiceEngine(inputs.config, self.state_root / f"setup-{self._setups}")

    def setup_signature(self, engine: Any) -> dict[str, Any]:
        return {"fingerprint": _crc(engine.fingerprint())}

    def ops(self, engine: Any, inputs: Any) -> Ops:
        lat: dict[str, list[float]] = {}
        failed = 0
        busy = 0.0
        sizes: list[int] = []
        for ev in inputs.schedule:
            before = len(engine.incidents)
            t = perf_counter()
            try:
                engine.apply(ev)
            except Exception:  # the loop keeps serving; the event counts as failed
                dt = perf_counter() - t
                traceback.print_exc(file=sys.stderr)
                failed += 1
            else:
                dt = perf_counter() - t
                new = engine.incidents[before:]
                failed += any(inc.guard in ("csr", "backbone") for inc in new)
            busy += dt
            lat.setdefault(ev.kind, []).append(dt)
            sizes.append(engine.backbone.cds_size)
        lat["read"] = lat.get("flow", [])
        lat["write"] = [x for kind in STRUCTURAL for x in lat.get(kind, [])]
        return Ops(
            count=len(inputs.schedule),
            seconds=busy,
            latencies=lat,
            output=(failed, float(np.mean(sizes))),
        )

    def check(self, engine: Any, inputs: Any, ops: Ops) -> PassResult:
        failed, mean_cds = ops.output
        report = engine.report()
        guards = Counter(inc.guard for inc in engine.incidents)
        sig = {
            "fingerprint": _crc(engine.fingerprint()),
            "counts": dict(sorted(engine.counts.items())),
            "incidents": dict(sorted(guards.items())),
            "final_cds": engine.backbone.cds_size,
        }
        extras = {
            "service.rebuild_fallbacks": float(engine.counts["rebuild_fallbacks"]),
            "service.backbone_rebuilds": float(engine.counts["backbone_rebuilds"]),
            "service.head_merges": float(engine.counts["head_merges"]),
            "delivery.delivered_frac": float(report.mean_delivered),
        }
        return PassResult(ops.count, failed, mean_cds, sig, extras)


class Mobility2k:
    """RandomWaypoint snapshots re-clustered and re-routed: bulk writes."""

    name = "mobility-2k"

    def __init__(self, quick: bool, out: Path) -> None:
        del out
        if quick:
            self.n, self.snapshots, self.flows, self.speed = 200, 3, 100, (0.01, 0.04)
        else:
            self.n, self.snapshots, self.flows = 2000, 40, 1500
            self.speed = (0.001, 0.004)
        self.degree, self.k, self.topo_seed = 10.0, 2, 17

    def inputs(self, seed: int) -> Any:
        return SimpleNamespace(
            workload=uniform_pairs(self.n, self.flows, seed=_seed(seed, 0)),
            waypoint_seed=_seed(seed, 1),
        )

    def setup(self, inputs: Any) -> Any:
        topo = topology.random_topology(self.n, self.degree, seed=self.topo_seed)
        topo.graph.use_distance_backend("lazy")
        return topo

    def setup_signature(self, topo: Any) -> dict[str, Any]:
        return {"draws": topo.attempts, "edges": topo.graph.m}

    def ops(self, topo: Any, inputs: Any) -> Ops:
        t = perf_counter()
        report = mobile.simulate_mobile_traffic(
            topo,
            self.k,
            inputs.workload,
            snapshots=self.snapshots,
            speed=self.speed,
            seed=inputs.waypoint_seed,
            algorithm="AC-LMST",
            engine="delta",
        )
        dt = perf_counter() - t
        return Ops(count=len(report.epochs), seconds=dt, output=report)

    def check(self, topo: Any, inputs: Any, ops: Ops) -> PassResult:
        report = ops.output
        sig = {
            "epochs": _crc(
                [
                    (e.step, e.connected, e.edges_added, e.edges_removed,
                     e.num_heads, e.cds_size, e.mean_stretch, e.max_node_load)
                    for e in report.epochs
                ]
            ),
            "rows_inherited": report.rows_inherited,
            "rows_partial_inherited": report.rows_partial_inherited,
            "balls_inherited": report.balls_inherited,
            "paths_inherited": report.paths_inherited,
            "router_rebuilds_avoided": report.router_rebuilds_avoided,
        }
        return PassResult(
            len(report.epochs),
            report.skipped_disconnected,
            report.mean("cds_size"),
            sig,
        )


class PaperSweep:
    """The Figs. 5-6 grid: every algorithm on one clustering per instance."""

    name = "paper-sweep"

    def __init__(self, quick: bool, out: Path) -> None:
        del out
        if quick:
            ns, degrees, ks, self.trials = (30, 40), (6.0,), (1, 2), 1
        else:
            ns, degrees, ks = (50, 80, 110, 140, 170, 200), (6.0, 10.0), (1, 2, 3, 4)
            self.trials = 5
        self.cells = [CellKey(n, d, k) for d in degrees for k in ks for n in ns]

    def inputs(self, seed: int) -> int:
        return PAPER_SEED + seed

    def setup(self, base_seed: int) -> None:
        # Warm-up: one smallest instance through all five algorithms, so
        # first-call costs land here and not in the first timed cell.  Its
        # instance does not depend on the seed: set-up is the same work on
        # every run.
        del base_seed
        sweep.run_cell(self.cells[0], max_trials=1, min_trials=1, base_seed=PAPER_SEED)

    def setup_signature(self, st: Any) -> dict[str, Any]:
        return {}

    def ops(self, st: Any, base_seed: int) -> Ops:
        cells: list[Any] = []
        t = perf_counter()
        for key in self.cells:
            try:
                cells.append(
                    sweep.run_cell(
                        key,
                        max_trials=self.trials,
                        min_trials=self.trials,
                        base_seed=base_seed,
                        verify=True,
                    )
                )
            except Exception:  # a raising cell fails all its instances
                traceback.print_exc(file=sys.stderr)
                cells.append(None)
        dt = perf_counter() - t
        return Ops(count=len(self.cells) * self.trials, seconds=dt, output=cells)

    def check(self, st: Any, base_seed: int, ops: Ops) -> PassResult:
        done = [c for c in ops.output if c is not None]
        failed = (len(ops.output) - len(done)) * self.trials
        failed += sum(self.trials - c.trials for c in done)
        sizes = [s.mean for c in done for s in c.cds_size.values()]
        sig = {
            "cells": _crc(
                [
                    (c.key, c.trials, c.num_heads.mean,
                     sorted((a, s.mean) for a, s in c.cds_size.items()),
                     sorted((a, s.mean) for a, s in c.gateways.items()))
                    for c in done
                ]
            )
        }
        return PassResult(
            ops.count, failed, float(np.mean(sizes)) if sizes else 0.0, sig
        )


WORKLOADS = {w.name: w for w in (Route5k, Serve400, Mobility2k, PaperSweep)}
