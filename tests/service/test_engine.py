"""The service loop itself: growth, repair, guards, flows, counters."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.service.checkpoint import read_events
from repro.service.engine import (
    INCIDENT_LOG_NAME,
    ServiceConfig,
    ServiceEngine,
    _initial_topology,
    run_service,
)
from repro.service.events import ServiceEvent, seeded_schedule
from repro.service.guards import run_guards
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import make_workload

GROWTH_WEIGHTS = {
    "join": 0.5,
    "flow": 0.5,
    "move": 0.0,
    "leave": 0.0,
    "link_down": 0.0,
    "degrade": 0.0,
}


def _config(**kw):
    base = dict(n=40, degree=8.0, k=2, seed=11, checkpoint_every=0)
    base.update(kw)
    return ServiceConfig(**base)


class TestServiceConfig:
    def test_rejects_global_algorithm(self):
        with pytest.raises(InvalidParameterError):
            _config(algorithm="G-MST")

    def test_record_round_trip(self):
        cfg = _config(base_loss=0.1, fsync=False)
        assert ServiceConfig.from_record(cfg.to_record()) == cfg


class TestGrowthUnderTraffic:
    def test_pure_growth_never_reruns_clustering(self):
        cfg = _config(seed=3)
        engine = ServiceEngine(cfg)
        sched = seeded_schedule(
            _initial_topology(cfg), events=40, seed=cfg.seed,
            weights=GROWTH_WEIGHTS, flows_per_batch=20,
        )
        engine.apply_all(sched)
        joins = sum(1 for e in sched if e.kind == "join")
        assert engine.graph.n == cfg.n + joins
        assert engine.counts["khop_reruns"] == 0
        assert engine.counts["rebuild_fallbacks"] == 0
        assert (
            engine.counts["joins_admitted"] + engine.counts["heads_declared"]
            == joins
        )

    def test_grown_nodes_keep_valid_cover(self):
        from repro.maintenance.repair import clustering_still_valid

        cfg = _config(seed=5)
        engine = ServiceEngine(cfg)
        sched = seeded_schedule(
            _initial_topology(cfg), events=30, seed=cfg.seed,
            weights=GROWTH_WEIGHTS, flows_per_batch=10,
        )
        engine.apply_all(sched)
        assert clustering_still_valid(
            engine.clustering, engine.graph, exclude=engine.dead
        )

    def test_flow_history_records_digests(self):
        cfg = _config(seed=7)
        engine = ServiceEngine(cfg)
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=25))
        (entry,) = engine.history
        assert entry["seq"] == 0
        assert entry["flows"] > 0
        assert entry["delivered"] == 1.0  # lossless config
        assert entry["walks_crc"] != 0


class TestComponentBridges:
    """An arrival in a radio hole islands itself; a later member arrival
    wires it back.  The graph becomes one component again, so the head
    graph must gain virtual links across the bridge — the member-join
    fast path alone cannot supply them (found by the 10^4 growth bench:
    "backbone does not connect heads").
    """

    @staticmethod
    def _hole_positions(engine):
        # Past the rightmost node: every deployed node has x <= anchor_x,
        # so a point 1.5r further right is > r from all of them (orphan),
        # while the midpoint is within r of both the anchor and the
        # orphan (the bridge).
        r = engine.topology.radius
        pts = engine.topology.positions
        anchor = int(np.argmax(pts[:, 0]))
        ax, ay = float(pts[anchor, 0]), float(pts[anchor, 1])
        return anchor, (ax + 1.5 * r, ay), (ax + 0.75 * r, ay)

    def test_bridging_member_join_reconnects_backbone(self):
        from repro.traffic.workloads import Workload

        cfg = _config(seed=11)
        engine = ServiceEngine(cfg)
        anchor, orphan_pos, bridge_pos = self._hole_positions(engine)
        engine.apply(ServiceEvent(seq=0, kind="join", position=orphan_pos))
        orphan = engine.graph.n - 1
        assert len(engine.graph.neighbors(orphan)) == 0
        assert orphan in engine.clustering.heads  # declared its own island
        engine.apply(ServiceEvent(seq=0, kind="join", position=bridge_pos))
        bridge = engine.graph.n - 1
        assert set(engine.graph.neighbors(bridge)) >= {anchor, orphan}
        assert engine.counts["component_bridges"] == 1
        assert engine.counts["rebuild_fallbacks"] == 0
        # An islanded arrival and its re-wiring are environmental, not
        # engine bugs: the per-component guard stays quiet throughout.
        assert engine.counts["guard_trips"] == 0
        # Cross-bridge traffic routes over the refreshed head graph.
        wl = Workload(
            "handmade",
            engine.graph.n,
            np.array([anchor]),
            np.array([orphan]),
            np.array([1]),
        )
        routed = engine.router.route_flows(wl, with_shortest=False)
        assert routed.walks

    def test_bridge_survives_state_round_trip(self):
        cfg = _config(seed=11)
        engine = ServiceEngine(cfg)
        _, orphan_pos, bridge_pos = self._hole_positions(engine)
        engine.apply(ServiceEvent(seq=0, kind="join", position=orphan_pos))
        engine.apply(ServiceEvent(seq=0, kind="join", position=bridge_pos))
        restored = ServiceEngine.from_state(cfg, engine.state_dict(), None)
        assert restored.fingerprint() == engine.fingerprint()
        flow = ServiceEvent(seq=0, kind="flow", flows=25)
        engine.apply(flow)
        restored.apply(flow, log=False, checkpoint=False)
        assert restored.fingerprint() == engine.fingerprint()


class TestDepartures:
    def test_leave_runs_repair_and_keeps_serving(self):
        cfg = _config(seed=13)
        engine = ServiceEngine(cfg)
        member = next(
            u
            for u in range(engine.graph.n)
            if u not in engine.backbone.cds
        )
        engine.apply(ServiceEvent(seq=0, kind="leave", node=member))
        assert member in engine.dead
        assert engine.counts["repairs"] == 1
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=30))
        assert engine.history[-1]["flows"] > 0

    def test_leave_twice_is_idempotent_noop(self):
        cfg = _config(seed=13)
        engine = ServiceEngine(cfg)
        engine.apply(ServiceEvent(seq=0, kind="leave", node=1))
        engine.apply(ServiceEvent(seq=0, kind="leave", node=1))
        assert engine.counts["repairs"] == 1
        assert engine.counts["skipped"] == 1

    def test_dead_node_never_rewired_by_arrival(self):
        cfg = _config(seed=17)
        engine = ServiceEngine(cfg)
        victim = 3
        engine.apply(ServiceEvent(seq=0, kind="leave", node=victim))
        pos = tuple(float(c) for c in engine.topology.positions[victim])
        engine.apply(ServiceEvent(seq=0, kind="join", position=pos))
        x = engine.graph.n - 1
        assert victim not in engine.graph.neighbors(x)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_failed_repair_fallback_cuts_the_departed_head(
        self, monkeypatch, seed
    ):
        # When the repair ladder raises, the scoped rebuild must run on
        # the post-departure graph: a still-wired node could be elected
        # head again and strand its members behind a dead radio.
        from repro.errors import RepairError
        from repro.service import engine as engine_mod

        def failing_repair(backbone, node):
            raise RepairError(f"forced failure removing {node}")

        engine = ServiceEngine(_config(n=80, seed=seed))
        sizes = Counter(engine.clustering.head_of)
        x = max(engine.clustering.heads, key=lambda h: (sizes[h], -h))
        monkeypatch.setattr(engine_mod, "degraded_repair", failing_repair)
        engine.apply(ServiceEvent(seq=0, kind="leave", node=x))
        assert engine.graph.neighbors(x) == ()
        assert x not in engine.clustering.heads
        assert run_guards(
            engine.graph,
            engine.clustering,
            engine.backbone,
            engine.dead,
            seq=1,
            kind="leave",
        ) == []
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=30))
        assert engine.history[-1]["flows"] > 0
        workload = make_workload("uniform", engine.graph.n, 30, seed=seed)
        alive = np.ones(engine.graph.n, dtype=bool)
        alive[x] = False
        routed = engine.router.route_flows(
            workload.restrict(alive), with_shortest=False
        )
        assert all(x not in walk for walk in routed.walks)


class TestGuardsAndIncidents:
    def test_cover_break_falls_back_without_incident(self, tmp_path):
        cfg = _config(seed=19)
        engine = ServiceEngine(cfg, tmp_path)
        # Rip out a head's entire neighborhood: the cover breaks, and the
        # designed fallback re-elects the survivors.  That is counted as
        # a cover fallback, not a guard trip, and logs no incident.
        head = engine.clustering.heads[0]
        edges = tuple(
            (min(head, v), max(head, v))
            for v in engine.graph.neighbors(head)
        )
        engine.apply(ServiceEvent(seq=0, kind="link_down", edges=edges))
        assert engine.counts["cover_fallbacks"] >= 1
        assert engine.counts["rebuild_fallbacks"] >= 1
        assert engine.counts["guard_trips"] == 0
        assert engine.incidents == []
        assert not (tmp_path / INCIDENT_LOG_NAME).exists()
        assert engine.report().cover_fallbacks == engine.counts["cover_fallbacks"]
        # still serving
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=20))
        assert engine.history[-1]["flows"] > 0

    def test_guard_trip_logs_incident_and_recovers(self, tmp_path):
        cfg = _config(seed=19)
        engine = ServiceEngine(cfg, tmp_path)
        # A real invariant break: a clusterhead marked as a gateway.
        bb = engine.backbone
        engine.router = BatchRouter(
            dataclasses.replace(bb, gateways=bb.gateways | {bb.heads[0]}),
            oracle=engine.paths,
        )
        # Taking down an absent link changes nothing, but it is a
        # structural event, so the guards run on the corrupted state.
        v = next(
            u for u in range(1, engine.graph.n) if not engine.graph.has_edge(0, u)
        )
        engine.apply(ServiceEvent(seq=0, kind="link_down", edges=((0, v),)))
        assert engine.counts["guard_trips"] == 1
        assert engine.counts["rebuild_fallbacks"] == 1
        assert engine.counts["cover_fallbacks"] == 0
        (incident,) = engine.incidents
        assert incident.guard == "backbone"
        assert incident.message.startswith("backbone battery failed")
        logged = [
            json.loads(line)
            for line in (tmp_path / INCIDENT_LOG_NAME).read_text().splitlines()
        ]
        assert [rec["guard"] for rec in logged] == ["backbone"]
        # The scoped rebuild installed a healthy state; still serving.
        assert engine.backbone.gateways.isdisjoint(engine.backbone.heads)
        assert run_guards(
            engine.graph,
            engine.clustering,
            engine.backbone,
            engine.dead,
            seq=1,
            kind="flow",
        ) == []
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=20))
        assert engine.history[-1]["flows"] > 0

    def test_corrupt_csr_rebuilds_from_the_edge_array(self, tmp_path):
        cfg = _config(seed=19)
        engine = ServiceEngine(cfg, tmp_path)
        g = engine.graph
        v = next(u for u in range(1, g.n) if not g.has_edge(0, u))
        # Corrupt the live CSR in place: node 3's last neighbor points
        # past the last node.  Every structure holding the graph sees it.
        indptr, indices = g.csr_adjacency
        bad = indices.copy()
        bad[indptr[4] - 1] = g.n
        g._indices = bad
        engine.apply(ServiceEvent(seq=0, kind="link_down", edges=((0, v),)))
        (incident,) = engine.incidents
        assert incident.guard == "csr"
        assert engine.counts["guard_trips"] == 1
        assert engine.counts["rebuild_fallbacks"] == 1
        # Re-election ran on arrays rebuilt from the intact edge array.
        assert engine.graph is not g and engine.graph == g
        assert engine.clustering.graph is engine.graph
        assert engine.graph.distance_backend == cfg.backend
        assert run_guards(
            engine.graph,
            engine.clustering,
            engine.backbone,
            engine.dead,
            seq=1,
            kind="flow",
        ) == []
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=20))
        assert engine.history[-1]["flows"] > 0

    def test_healthy_run_trips_no_guards(self):
        cfg = _config(seed=23)
        engine = ServiceEngine(cfg)
        sched = seeded_schedule(
            _initial_topology(cfg), events=25, seed=cfg.seed,
            weights=GROWTH_WEIGHTS, flows_per_batch=10,
        )
        engine.apply_all(sched)
        assert engine.incidents == []


class TestDegrade:
    def test_degrade_reduces_delivered_fraction(self):
        cfg = _config(seed=29, base_loss=0.0)
        engine = ServiceEngine(cfg)
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=40))
        assert engine.history[-1]["delivered"] == 1.0
        edges = engine.graph.edges[:30]
        engine.apply(
            ServiceEvent(seq=0, kind="degrade", edges=edges, loss=0.9)
        )
        assert len(engine.loss) == 30
        engine.apply(ServiceEvent(seq=0, kind="flow", flows=40))
        assert engine.history[-1]["delivered"] < 1.0

    def test_zero_loss_clears_override(self):
        cfg = _config(seed=29)
        engine = ServiceEngine(cfg)
        e = engine.graph.edges[0]
        engine.apply(ServiceEvent(seq=0, kind="degrade", edges=(e,), loss=0.5))
        engine.apply(ServiceEvent(seq=0, kind="degrade", edges=(e,), loss=0.0))
        assert engine.loss == {}


class TestDurableLoop:
    def test_events_logged_before_effects(self, tmp_path):
        cfg = _config(seed=31, checkpoint_every=5)
        engine = ServiceEngine(cfg, tmp_path)
        sched = seeded_schedule(
            _initial_topology(cfg), events=12, seed=cfg.seed,
            weights=GROWTH_WEIGHTS, flows_per_batch=5,
        )
        engine.apply_all(sched)
        logged = read_events(tmp_path)
        assert [e.kind for e in logged] == [e.kind for e in sched]
        assert engine.counts["checkpoints"] == 2

    def test_run_service_reports(self, tmp_path):
        cfg = _config(seed=37, checkpoint_every=10)
        engine, report = run_service(
            cfg, events=20, directory=tmp_path, weights=GROWTH_WEIGHTS,
            flows_per_batch=10,
        )
        assert report.events_applied == 20
        assert report.final_n == engine.graph.n
        assert report.khop_reruns == 0
        assert 0.0 <= report.mean_delivered <= 1.0
        assert "events applied" in report.render()
