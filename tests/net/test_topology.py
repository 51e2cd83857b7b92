"""Tests for unit-disk topology generation and calibration."""

import math
import re
import zlib

import numpy as np
import pytest

from repro.errors import CalibrationError, InvalidParameterError
from repro.net import topology
from repro.net.geometry import grid_positions, pairwise_distances, random_positions
from repro.net.topology import (
    calibrate_radius,
    radius_for_degree,
    random_topology,
    unit_disk_edges,
    unit_disk_graph,
)


def _crc(obj):
    return f"{zlib.crc32(repr(obj).encode()):08x}"


def _dense_edges(pos, radius):
    """Reference edge array: every pair measured in one distance matrix."""
    dist = pairwise_distances(pos)
    iu, ju = np.triu_indices(len(pos), k=1)
    keep = dist[iu, ju] <= radius
    return np.stack([iu[keep], ju[keep]], axis=1)


class TestRadiusForDegree:
    def test_analytic_formula(self):
        r = radius_for_degree(101, 6.0, (100.0, 100.0))
        assert r == pytest.approx(math.sqrt(6 * 10000 / (math.pi * 100)))

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            radius_for_degree(1, 6.0)
        with pytest.raises(InvalidParameterError):
            radius_for_degree(10, 0.0)


class TestUnitDiskGraph:
    def test_edges_exactly_within_radius(self):
        pos = np.array([[0, 0], [1, 0], [2.5, 0]], dtype=float)
        g = unit_disk_graph(pos, 1.5)
        assert set(g.edges) == {(0, 1), (1, 2)}

    def test_radius_zero_no_edges(self):
        pos = np.array([[0, 0], [1, 0]], dtype=float)
        assert unit_disk_graph(pos, 0.5).m == 0

    def test_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            unit_disk_graph(np.zeros((2, 2)), -1)


class TestRandomTopology:
    def test_basic_properties(self):
        topo = random_topology(60, 6.0, seed=1)
        assert topo.n == 60
        assert topo.graph.is_connected()
        assert topo.positions.shape == (60, 2)
        assert topo.attempts >= 1

    def test_reproducible(self):
        a = random_topology(50, 6.0, seed=99)
        b = random_topology(50, 6.0, seed=99)
        assert a.graph == b.graph
        assert np.array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = random_topology(50, 6.0, seed=1)
        b = random_topology(50, 6.0, seed=2)
        assert a.graph != b.graph

    def test_degree_in_ballpark(self):
        degs = [random_topology(100, 6.0, seed=s).realized_degree() for s in range(5)]
        mean = sum(degs) / len(degs)
        assert 4.0 <= mean <= 8.0  # analytic calibration, border effects allowed

    def test_dense_target(self):
        topo = random_topology(100, 10.0, seed=3)
        assert 7.0 <= topo.realized_degree() <= 13.0

    def test_explicit_radius_override(self):
        topo = random_topology(30, 6.0, seed=5, radius=200.0)
        # radius covers the whole area: complete graph
        assert topo.graph.m == 30 * 29 // 2
        assert topo.radius == 200.0

    def test_single_node(self):
        topo = random_topology(1, 6.0, seed=0)
        assert topo.n == 1 and topo.graph.m == 0

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            random_topology(0, 6.0, seed=0)

    def test_unknown_calibration(self):
        with pytest.raises(InvalidParameterError):
            random_topology(10, 6.0, seed=0, calibration="magic")

    def test_impossible_connectivity_raises(self):
        # these degrees leave a node isolated in nearly every draw, so the
        # attempts run out; the error names the infeasible parameters
        for n, degree in ((80, 0.3), (200, 2.0)):
            with pytest.raises(
                CalibrationError, match=re.escape(f"n={n}, degree={degree},")
            ):
                random_topology(n, degree, seed=0, max_attempts=3)

    def test_not_requiring_connected(self):
        topo = random_topology(
            80, 0.5, seed=0, require_connected=False, max_attempts=1
        )
        assert topo.n == 80  # accepted on first draw

    def test_empirical_calibration_close(self):
        topo = random_topology(80, 6.0, seed=11, calibration="empirical")
        assert 4.5 <= topo.realized_degree() <= 7.5


class TestCalibrateRadius:
    def test_hits_target(self):
        rng = np.random.default_rng(0)
        r = calibrate_radius(80, 6.0, rng=rng, samples=4, tol=0.05)
        # verify on fresh samples
        degs = []
        for s in range(4):
            topo = random_topology(
                80, 6.0, seed=s, radius=r, require_connected=False, max_attempts=1
            )
            degs.append(topo.realized_degree())
        assert abs(sum(degs) / len(degs) - 6.0) < 1.2

    def test_unreachable_degree(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            calibrate_radius(10, 20.0, rng=rng)

    def test_no_convergence_names_n_and_degree(self):
        # a zero tolerance cannot be met by two bisection steps
        rng = np.random.default_rng(0)
        with pytest.raises(CalibrationError, match=re.escape("n=50, degree=6.0")):
            calibrate_radius(50, 6.0, rng=rng, tol=0.0, max_iter=2)


class TestRandomTopologyPins:
    """The accepted draw of each workload's generator call, pinned.

    ``(attempts, m, crc32(repr(edges)), crc32(repr(positions)))``: the
    RNG stream, the rejection rule and the edge set must all survive any
    change to how draws are screened or graphs are built.
    """

    @pytest.mark.parametrize(
        "n, degree, seed, pin",
        [
            (50, 6.0, 1, (1, 132, "b405efaf", "e9a422a7")),
            (200, 10.0, 1, (1, 859, "fb01d146", "271058fa")),
            (400, 8.0, 7, (3, 1504, "6ccc4a18", "20983793")),  # service default
            (2000, 10.0, 17, (1, 9630, "6c10ae36", "de30c476")),  # mobility-2k
            (5000, 8.0, 7, (100, 19705, "4343e131", "2a8e3da0")),  # route-5k
        ],
    )
    def test_accepted_sample(self, n, degree, seed, pin):
        topo = random_topology(n, degree, seed=seed)
        got = (
            topo.attempts,
            topo.graph.m,
            _crc(topo.graph.edges),
            _crc(topo.positions.tolist()),
        )
        assert got == pin

    def test_draws_with_an_isolated_node_build_no_graph(self, monkeypatch):
        built = []
        graph = topology.Graph

        def spy(n, edges):
            built.append(np.bincount(np.ravel(edges), minlength=n).min())
            return graph(n, edges)

        monkeypatch.setattr(topology, "Graph", spy)
        topo = topology.random_topology(400, 8.0, seed=7)
        monkeypatch.undo()
        assert 0 < len(built) < topo.attempts
        assert min(built) > 0


class TestCellBinnedEdges:
    """The spatial-hash edge builder must agree exactly with a dense
    reference, below and above the size where the dense matrix used to
    be the edge path (1024 nodes)."""

    def test_matches_dense_unit_disk(self):
        rng = np.random.default_rng(5)
        for n, degree in ((2, 1.0), (50, 6.0), (400, 10.0), (1500, 12.0)):
            pos = random_positions(n, (100.0, 100.0), rng)
            r = radius_for_degree(n, degree)
            edges = unit_disk_edges(pos, r)
            assert edges.dtype == np.int64 and edges.shape[1] == 2
            assert np.array_equal(edges, _dense_edges(pos, r))
            assert np.array_equal(unit_disk_graph(pos, r).edge_array, edges)

    @pytest.mark.parametrize("spacing", [1.0, 0.1, 0.7, 2.5])
    def test_knife_edge_grid(self, spacing):
        # Grid neighbors sit exactly one spacing (or one diagonal) apart,
        # up to the rounding of their coordinates, many on cell
        # boundaries; the dense reference decides every such pair.  The
        # 1089-node grid takes the one-offset-at-a-time path.
        for shape in ((7, 9), (33, 33)):
            pos = grid_positions(*shape, spacing) + 0.3
            for r in (spacing, spacing * math.sqrt(2), spacing * 2):
                assert np.array_equal(unit_disk_edges(pos, r), _dense_edges(pos, r))

    def test_large_n_uses_lazy_backend_by_default(self):
        topo = random_topology(1500, degree=12.0, seed=3)
        assert topo.graph.distance_backend == "lazy"
        assert topo.graph.oracle.backend == "lazy"

    def test_zero_radius_matches_dense_path(self):
        # Coincident points are within range 0 of each other.
        pos = np.array(
            [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [3.0, 0.0]]
        )
        edges = unit_disk_edges(pos, 0.0)
        assert edges.tolist() == [[0, 2], [1, 3], [1, 4], [3, 4]]
        assert np.array_equal(edges, _dense_edges(pos, 0.0))

    def test_negative_radius_raises(self):
        with pytest.raises(InvalidParameterError):
            unit_disk_edges(np.zeros((3, 2)), -1.0)
