"""Tests for mobility and churn processes.

Beyond the original smoke checks, the property classes pin down the
invariants the mobility-coupled traffic loop and the scenario regression
matrix rely on: positions never leave the area, every leg's speed
respects ``speed_range``, and identical seeds give identical trajectories
no matter how the steps are batched.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.graph import Graph
from repro.net.mobility import ChurnProcess, RandomWaypoint, snapshot_edge_delta


class TestRandomWaypoint:
    def _make(self, n=10, seed=0, speed=(1.0, 2.0)):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 2)) * 100
        return RandomWaypoint(pos, (100.0, 100.0), speed, np.random.default_rng(seed + 1))

    def test_positions_stay_in_area(self):
        rw = self._make()
        for _ in range(200):
            pos = rw.step()
            assert (pos >= 0).all()
            assert (pos <= 100).all()

    def test_step_moves_at_most_speed(self):
        rw = self._make(speed=(0.5, 1.5))
        before = rw.positions
        after = rw.step()
        moved = np.sqrt(((after - before) ** 2).sum(axis=1))
        assert (moved <= 1.5 + 1e-9).all()

    def test_zero_speed_stationary(self):
        rw = self._make(speed=(0.0, 0.0))
        before = rw.positions
        rw.step()
        assert np.allclose(rw.positions, before)

    def test_invalid_speed_range(self):
        with pytest.raises(InvalidParameterError):
            self._make(speed=(2.0, 1.0))

    def test_snapshot_graph(self):
        rw = self._make(n=20)
        g = rw.snapshot_graph(radius=150.0)
        assert g.m == 20 * 19 // 2  # everything in range

    def test_positions_returns_copy(self):
        rw = self._make()
        p = rw.positions
        p[:] = -1
        assert (rw.positions >= 0).all()


class TestChurnProcess:
    def test_all_alive_initially(self):
        c = ChurnProcess(5, 0.0, 0.0, np.random.default_rng(0))
        assert c.alive_nodes() == (0, 1, 2, 3, 4)
        assert c.dead_nodes() == ()

    def test_no_churn_no_events(self):
        c = ChurnProcess(5, 0.0, 0.0, np.random.default_rng(0))
        assert c.step() == []

    def test_certain_death(self):
        c = ChurnProcess(4, 1.0, 0.0, np.random.default_rng(0))
        events = c.step()
        assert len(events) == 4
        assert all(e.kind == "off" for e in events)
        assert c.alive_nodes() == ()

    def test_revival(self):
        c = ChurnProcess(3, 1.0, 1.0, np.random.default_rng(0))
        c.step()  # all die
        events = c.step()  # all revive
        assert all(e.kind == "on" for e in events)
        assert c.alive_nodes() == (0, 1, 2)

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            ChurnProcess(3, 1.5, 0.0, np.random.default_rng(0))

    def test_event_steps_increment(self):
        c = ChurnProcess(2, 1.0, 1.0, np.random.default_rng(0))
        e1 = c.step()
        e2 = c.step()
        assert all(e.step == 1 for e in e1)
        assert all(e.step == 2 for e in e2)


def _make_waypoint(n=25, seed=0, speed=(0.5, 2.0), area=(60.0, 40.0)):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2)) * np.asarray(area)
    return RandomWaypoint(pos, area, speed, np.random.default_rng(seed + 1))


class TestRandomWaypointProperties:
    """The §3.3 mobility invariants the regression matrix relies on."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_positions_stay_inside_area_long_run(self, seed):
        area = (37.0, 91.0)
        rw = _make_waypoint(n=30, seed=seed, area=area, speed=(0.0, 5.0))
        for _ in range(300):
            pos = rw.step()
            assert (pos >= 0.0).all()
            assert (pos[:, 0] <= area[0]).all()
            assert (pos[:, 1] <= area[1]).all()
            # The internal waypoints themselves never leave the area.
            t = rw.leg_targets
            assert (t >= 0.0).all()
            assert (t[:, 0] <= area[0]).all()
            assert (t[:, 1] <= area[1]).all()

    @pytest.mark.parametrize("speed", [(0.0, 0.0), (0.25, 0.25), (0.5, 3.0)])
    def test_leg_speeds_respect_speed_range(self, speed):
        rw = _make_waypoint(seed=3, speed=speed)
        lo, hi = speed
        for _ in range(120):
            s = rw.leg_speeds
            assert (s >= lo - 1e-12).all()
            assert (s <= hi + 1e-12).all()
            before = rw.positions
            after = rw.step()
            moved = np.sqrt(((after - before) ** 2).sum(axis=1))
            # Per-step displacement is bounded by the fastest leg speed
            # (arriving nodes stop short of a full step).
            assert (moved <= hi + 1e-9).all()

    @pytest.mark.parametrize("batching", [[200], [1] * 200, [7, 50, 143], [100, 100]])
    def test_identical_seeds_identical_trajectories_any_batching(self, batching):
        assert sum(batching) == 200
        reference = _make_waypoint(seed=11)
        for _ in range(200):
            reference.step()
        other = _make_waypoint(seed=11)
        for chunk in batching:
            other.advance(chunk)
        assert np.array_equal(reference.positions, other.positions)
        assert np.array_equal(reference.leg_targets, other.leg_targets)
        assert np.array_equal(reference.leg_speeds, other.leg_speeds)

    def test_different_seeds_diverge(self):
        a = _make_waypoint(seed=1)
        b = _make_waypoint(seed=2)
        a.advance(10)
        b.advance(10)
        assert not np.array_equal(a.positions, b.positions)

    def test_advance_negative_raises(self):
        with pytest.raises(InvalidParameterError):
            _make_waypoint().advance(-1)

    def test_advance_zero_is_noop(self):
        rw = _make_waypoint(seed=5)
        before = rw.positions
        assert np.array_equal(rw.advance(0), before)

    def test_snapshot_edges_match_snapshot_graph(self):
        rw = _make_waypoint(n=40, seed=9)
        rw.advance(5)
        g = rw.snapshot_graph(radius=12.0)
        assert np.array_equal(rw.snapshot_edges(radius=12.0), g.edge_array)

    def test_snapshot_edge_delta_roundtrip(self):
        rw = _make_waypoint(n=40, seed=13, speed=(0.5, 1.5))
        g = rw.snapshot_graph(radius=12.0)
        rw.advance(3)
        new_edges = rw.snapshot_edges(radius=12.0)
        added, removed = snapshot_edge_delta(g, new_edges)
        plus = set(map(tuple, added.tolist()))
        minus = set(map(tuple, removed.tolist()))
        assert plus and minus and plus.isdisjoint(minus)
        assert plus.isdisjoint(g.edges)
        assert minus <= set(g.edges)
        assert added.tolist() == sorted(added.tolist())
        assert removed.tolist() == sorted(removed.tolist())
        g2 = g.with_edge_delta(added, removed)
        assert np.array_equal(g2.edge_array, new_edges)
        assert g2 == Graph(g.n, new_edges)


class TestChurnProcessProperties:
    def test_alive_dead_partition_invariant(self):
        c = ChurnProcess(40, 0.15, 0.1, np.random.default_rng(4))
        for _ in range(100):
            c.step()
            alive = set(c.alive_nodes())
            dead = set(c.dead_nodes())
            assert alive.isdisjoint(dead)
            assert alive | dead == set(range(40))
            assert c.alive_mask.sum() == len(alive)

    def test_events_match_state_flips(self):
        c = ChurnProcess(30, 0.3, 0.2, np.random.default_rng(8))
        prev = c.alive_mask
        for step in range(1, 60):
            events = c.step()
            cur = c.alive_mask
            flipped = {int(u) for u in np.flatnonzero(prev != cur)}
            assert {e.node for e in events} == flipped
            for e in events:
                assert e.step == step
                assert e.kind == ("off" if prev[e.node] else "on")
            prev = cur

    def test_identical_seeds_identical_event_streams(self):
        a = ChurnProcess(25, 0.2, 0.15, np.random.default_rng(17))
        b = ChurnProcess(25, 0.2, 0.15, np.random.default_rng(17))
        for _ in range(50):
            ea = [(e.step, e.node, e.kind) for e in a.step()]
            eb = [(e.step, e.node, e.kind) for e in b.step()]
            assert ea == eb
