"""Mobility-coupled traffic loop: delta-vs-rebuild identity and invariants."""

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.topology import random_topology
from repro.traffic.mobile import render_mobile, simulate_mobile_traffic
from repro.traffic.workloads import make_workload, uniform_pairs


@pytest.fixture(scope="module")
def instance():
    topo = random_topology(200, degree=8.0, seed=11)
    topo.graph.use_distance_backend("lazy")
    wl = uniform_pairs(topo.graph.n, 300, seed=5)
    return topo, wl


def _run(topo, wl, engine, **kw):
    kw.setdefault("snapshots", 5)
    kw.setdefault("speed", (0.1, 0.4))
    kw.setdefault("seed", 3)
    return simulate_mobile_traffic(topo, 2, wl, engine=engine, **kw)


class TestEngineEquivalence:
    def test_delta_walks_identical_to_rebuild(self, instance):
        topo, wl = instance
        rb = _run(topo, wl, "rebuild", collect_walks=True)
        dl = _run(topo, wl, "delta", collect_walks=True)
        assert rb.walks == dl.walks
        assert len(dl.walks) == len(dl.epochs)

    def test_metrics_identical_across_engines(self, instance):
        topo, wl = instance
        rb = _run(topo, wl, "rebuild")
        dl = _run(topo, wl, "delta")
        assert len(rb.epochs) == len(dl.epochs)
        for a, b in zip(rb.epochs, dl.epochs):
            assert a.step == b.step
            assert a.connected == b.connected
            assert (a.edges_added, a.edges_removed) == (
                b.edges_added,
                b.edges_removed,
            )
            assert a.num_heads == b.num_heads
            assert a.cds_size == b.cds_size
            if a.connected:
                assert a.mean_stretch == pytest.approx(b.mean_stretch)
                assert a.max_node_load == b.max_node_load
                assert a.backbone_fairness == pytest.approx(b.backbone_fairness)

    @pytest.mark.parametrize("workload", ["hotspot", "gossip"])
    def test_other_workloads_stay_identical(self, instance, workload):
        topo, _ = instance
        wl = make_workload(workload, topo.graph.n, 300, seed=9)
        rb = _run(topo, wl, "rebuild", snapshots=3, collect_walks=True)
        dl = _run(topo, wl, "delta", snapshots=3, collect_walks=True)
        assert rb.walks == dl.walks


class TestEpochInvariants:
    def test_epoch_series_shape_and_metrics(self, instance):
        topo, wl = instance
        report = _run(topo, wl, "delta")
        assert len(report.epochs) == 6  # initial + 5 moved snapshots
        assert report.epochs[0].step == 0
        assert report.epochs[0].edges_added == 0
        assert report.epochs[0].edges_removed == 0
        for e in report.routed_epochs():
            assert e.delivered == 1.0
            assert e.flows_routed == wl.num_flows
            assert e.mean_stretch >= 1.0
            assert e.p95_stretch >= 1.0
            assert 0.0 <= e.backbone_fairness <= 1.0
            assert 0.0 <= e.cds_share <= 1.0
            assert e.cds_size >= e.num_heads > 0
        churn = [e.head_churn for e in report.routed_epochs()[1:]]
        assert all(0.0 <= c <= 1.0 for c in churn)
        assert math.isnan(report.routed_epochs()[0].head_churn)

    def test_inheritance_counters_populate(self, instance):
        topo, wl = instance
        report = _run(topo, wl, "delta", speed=(0.02, 0.08))
        assert report.rows_inherited > 0
        rb = _run(topo, wl, "rebuild")
        assert rb.rows_inherited == 0
        assert rb.paths_inherited == 0

    def test_mean_and_delivery_rate(self, instance):
        topo, wl = instance
        report = _run(topo, wl, "delta")
        assert report.mean("mean_stretch") >= 1.0
        assert report.delivery_rate == pytest.approx(1.0)

    def test_render_smoke(self, instance):
        topo, wl = instance
        text = render_mobile(_run(topo, wl, "delta"))
        assert "mobility-coupled traffic" in text
        assert "inherited:" in text

    def test_disconnected_snapshots_record_delivery(self):
        # A sparse instance moved violently disconnects; those epochs
        # must record partial delivery, not crash, and the delta chain
        # must survive the gap.
        topo = random_topology(60, degree=5.0, seed=23)
        wl = uniform_pairs(topo.graph.n, 120, seed=2)
        report = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            engine="delta", collect_walks=True,
        )
        rebuilt = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            engine="rebuild", collect_walks=True,
        )
        assert report.walks == rebuilt.walks
        if report.skipped_disconnected:
            bad = [e for e in report.epochs if not e.connected]
            assert all(0.0 <= e.delivered < 1.0 + 1e-9 for e in bad)
            assert all(e.flows_routed == 0 for e in bad)


class TestValidation:
    def test_engine_name_validated(self, instance):
        topo, wl = instance
        with pytest.raises(InvalidParameterError):
            simulate_mobile_traffic(topo, 2, wl, snapshots=2, engine="warp")

    def test_snapshots_validated(self, instance):
        topo, wl = instance
        with pytest.raises(InvalidParameterError):
            simulate_mobile_traffic(topo, 2, wl, snapshots=0)

    def test_workload_size_validated(self, instance):
        topo, _ = instance
        wl = uniform_pairs(77, 50, seed=1)
        with pytest.raises(InvalidParameterError):
            simulate_mobile_traffic(topo, 2, wl, snapshots=2)

    def test_delivered_fraction_shape_validated(self, instance):
        _, wl = instance
        with pytest.raises(InvalidParameterError):
            wl.delivered_fraction(np.zeros(3, dtype=np.int64))


class TestDegradedMobility:
    """Component-local routing keeps serving disconnected snapshots."""

    @pytest.fixture(scope="class")
    def sparse(self):
        topo = random_topology(60, degree=5.0, seed=23)
        wl = uniform_pairs(topo.graph.n, 120, seed=2)
        return topo, wl

    def test_degraded_epochs_route_flows(self, sparse):
        topo, wl = sparse
        report = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            degraded=True,
        )
        if not report.degraded_epochs:
            pytest.skip("scenario never disconnected")
        served = [e for e in report.epochs if e.degraded]
        assert len(served) == report.degraded_epochs
        assert any(e.flows_routed > 0 for e in served)
        for e in served:
            assert not e.connected
            assert math.isnan(e.head_churn)
            assert 0.0 <= e.delivered <= 1.0

    def test_degraded_does_not_change_connected_epochs(self, sparse):
        topo, wl = sparse
        plain = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            collect_walks=True,
        )
        deg = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            degraded=True, collect_walks=True,
        )
        for a, b in zip(plain.epochs, deg.epochs):
            if a.connected:
                assert b.connected
                assert a.flows_routed == b.flows_routed
                assert a.mean_stretch == b.mean_stretch

    def test_recovery_times_recorded(self, sparse):
        topo, wl = sparse
        report = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            degraded=True,
        )
        if not report.degraded_epochs:
            pytest.skip("scenario never disconnected")
        assert all(t >= 1 for t in report.recovery_times)
        assert sum(report.recovery_times) <= report.degraded_epochs

    def test_degraded_requires_localized_algorithm(self, sparse):
        topo, wl = sparse
        with pytest.raises(InvalidParameterError):
            simulate_mobile_traffic(
                topo, 2, wl, snapshots=2, degraded=True, algorithm="G-MST"
            )

    def test_route_degraded_marks_cross_component_flows(self):
        import numpy as np

        from repro.net.generators import two_cliques_bridge
        from repro.traffic.mobile import route_degraded
        from repro.traffic.workloads import Workload

        g = two_cliques_bridge(6, 3).without_nodes([7])  # partitioned
        wl = Workload(
            name="manual",
            n=15,
            sources=np.asarray([1, 9, 2]),
            targets=np.asarray([5, 14, 12]),  # last one crosses
            demands=np.asarray([1, 1, 1]),
        )
        backbone, routed = route_degraded(g, 1, wl)
        assert routed.valid is not None
        assert routed.valid.tolist() == [True, True, False]
        assert len(routed.walks[0]) >= 2
        assert routed.hops[~routed.valid].tolist() == [0]

    def test_render_mentions_degraded(self, sparse):
        topo, wl = sparse
        report = simulate_mobile_traffic(
            topo, 2, wl, snapshots=12, speed=(3.0, 8.0), seed=1,
            degraded=True,
        )
        if not report.degraded_epochs:
            pytest.skip("scenario never disconnected")
        text = render_mobile(report)
        assert "degraded" in text
