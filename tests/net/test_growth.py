"""Node-arrival growth: ``Graph.with_nodes`` — a pad step plus an edge delta.

The service tentpole's contract mirrors the edge-delta one — exactness: a
grown graph and its inherited caches must be *observationally identical*
to a from-scratch rebuild.  Node addition is the pure *decrease* half of
the delta machinery (new nodes only create paths, never destroy them), so
the randomized classes here drive arbitrary arrivals — pendant, multi-edge,
multi-node batches with new-new edges, isolated nodes — against fresh
rebuilds for rows, balls, canonical paths, and landmark labels alike.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.graph import Graph
from repro.net.oracle import UNREACHABLE, LazyDistanceOracle
from repro.net.paths import PathOracle
from repro.net.topology import random_topology


def _random_graph(rng, n):
    edges = set()
    for _ in range(n * 2):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph(n, edges)
    g.use_distance_backend("lazy")
    return g


def _random_arrival(rng, g, max_new=3, max_deg=4):
    """A random with_nodes delta: 1..max_new nodes, each wired to a few
    earlier nodes (old or new-in-batch; possibly none — isolated)."""
    count = int(rng.integers(1, max_new + 1))
    edges = []
    for i in range(count):
        x = g.n + i
        deg = int(rng.integers(0, max_deg + 1))
        if deg:
            targets = rng.choice(x, size=min(deg, x), replace=False)
            edges.extend((int(t), x) for t in targets)
    return count, edges


class TestWithNodes:
    def test_graph_equals_fresh_rebuild(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            g = _random_graph(rng, n)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            fresh = Graph(n + count, set(g.edges) | {tuple(sorted(e)) for e in edges})
            assert g2 == fresh
            assert np.array_equal(g2.edge_array, fresh.edge_array)
            for u in range(g2.n):
                assert g2.neighbors(u) == fresh.neighbors(u)

    def test_csr_patch_equals_fresh_rebuild(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            g = _random_graph(rng, n)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            fresh = Graph(g2.n, g2.edges)
            pi, px = g2.csr_adjacency
            fi, fx = fresh.csr_adjacency
            assert np.array_equal(pi, fi)
            assert np.array_equal(px, fx)
            assert not pi.flags.writeable and not px.flags.writeable

    def test_zero_count_returns_self(self):
        g = _random_graph(np.random.default_rng(2), 10)
        assert g.with_nodes(0) is g

    def test_rejects_negative_count(self):
        g = _random_graph(np.random.default_rng(2), 10)
        with pytest.raises(InvalidParameterError):
            g.with_nodes(-1)

    def test_rejects_edge_between_old_nodes(self):
        g = _random_graph(np.random.default_rng(2), 10)
        with pytest.raises(InvalidParameterError, match="with_edge_delta"):
            g.with_nodes(1, [(0, 1)])

    def test_rejects_out_of_range_endpoint(self):
        g = _random_graph(np.random.default_rng(2), 10)
        with pytest.raises(InvalidParameterError):
            g.with_nodes(1, [(3, 11)])
        with pytest.raises(ValueError):
            g.with_nodes(1, [(10, 10)])  # self-loop on the new node

    def test_chained_growth(self):
        rng = np.random.default_rng(3)
        g = _random_graph(rng, 12)
        for _ in range(10):
            count, edges = _random_arrival(rng, g)
            g = g.with_nodes(count, edges)
        fresh = Graph(g.n, g.edges)
        assert g == fresh
        assert np.array_equal(g.edge_array, fresh.edge_array)
        for a, b in zip(g.csr_adjacency, fresh.csr_adjacency):
            assert np.array_equal(a, b)

    def test_inherit_oracles_false_drops_caches_not_answers(self):
        # The service growth loop's opt-out: empty caches, same distances.
        rng = np.random.default_rng(4)
        g = _random_graph(rng, 20)
        warm = g.oracle.rows(range(6))
        count, edges = _random_arrival(rng, g)
        g2 = g.with_nodes(count, edges, inherit_oracles=False)
        stats = g2.oracle.stats()
        assert stats.backend == g.oracle.backend
        assert stats.cached_bytes == 0 and stats.lineage_inherits == 0
        carried = g.with_nodes(count, edges)
        for u in range(6):
            assert np.array_equal(
                g2.oracle.rows([u])[0], carried.oracle.rows([u])[0]
            )
        del warm


class TestLazyOracleNodeAdd:
    """Arrival inheritance on the lazy oracle — rows, balls, certificates."""

    def _warm(self, g, rng, rows=8, balls=6, radius=2):
        o = g.oracle
        assert isinstance(o, LazyDistanceOracle)
        for s in rng.choice(g.n, size=min(rows, g.n), replace=False):
            o.row(int(s))
        for s in rng.choice(g.n, size=min(balls, g.n), replace=False):
            o.ball(int(s), radius)
        return o

    def test_rows_and_balls_equal_fresh_rebuild(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(8, 30))
            g = _random_graph(rng, n)
            self._warm(g, rng)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            fresh = Graph(g2.n, g2.edges)
            fresh.use_distance_backend("lazy")
            for s in range(g2.n):
                assert np.array_equal(
                    g2.oracle.row(s), fresh.oracle.row(s)
                ), s
            for s in range(g2.n):
                bn, bd = g2.oracle.ball(s, 2)
                rn, rd = fresh.oracle.ball(s, 2)
                assert np.array_equal(bn, rn) and np.array_equal(bd, rd), s

    def test_shortcut_arrival_patches_rows(self):
        # Attach the new node to a graph-diameter pair: every cached row
        # that could route through the shortcut must be Dial-patched, and
        # the result must still match a fresh rebuild.
        topo = random_topology(60, 6, seed=5)
        g = topo.graph.use_distance_backend("lazy")
        rows = g.oracle.rows(range(g.n))
        u, v = np.unravel_index(
            np.argmax(np.where(rows < UNREACHABLE, rows, -1)), rows.shape
        )
        assert rows[u, v] >= 3  # the arrival below is a genuine shortcut
        g2 = g.with_nodes(1, [(int(u), g.n), (int(v), g.n)])
        fresh = Graph(g2.n, g2.edges).use_distance_backend("lazy")
        for s in range(g.n):
            assert np.array_equal(g2.oracle.row(s), fresh.oracle.row(s)), s
        st = g2.oracle.stats()
        assert st.rows_patched > 0
        assert st.rows_inherited == g.n

    def test_certified_sources_are_exactly_unchanged_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(8, 25))
            g = _random_graph(rng, n)
            o = self._warm(g, rng, rows=n, balls=0)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            fresh = Graph(g2.n, g2.edges)
            fresh.use_distance_backend("lazy")
            certified = g2.oracle.delta_certified_sources
            for s in range(n):
                old = np.asarray(o.row(s))
                new = np.asarray(fresh.oracle.row(s))
                # Certified means every distance is identical, the new
                # nodes' entries (unreachable before the attach step)
                # included.
                unchanged = bool((new[:n] == old).all()) and bool(
                    (new[n:] == UNREACHABLE).all()
                )
                assert (s in certified) == unchanged, s

    def test_isolated_arrival_certifies_everything(self):
        rng = np.random.default_rng(12)
        g = _random_graph(rng, 15)
        self._warm(g, rng, rows=15, balls=5)
        g2 = g.with_nodes(2)  # no edges at all
        st = g2.oracle.stats()
        assert st.rows_inherited == 15
        assert st.rows_patched == 0
        assert len(g2.oracle.delta_certified_sources) == 15
        assert st.balls_inherited == 5
        row = g2.oracle.row(0)
        assert row[15] == UNREACHABLE and row[16] == UNREACHABLE

    def test_partial_rows_carry_with_shrunken_radius(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(10, 25))
            g = _random_graph(rng, n)
            o = g.oracle
            for s in range(0, n, 2):
                o.ball(s, 2)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            fresh = Graph(g2.n, g2.edges)
            fresh.use_distance_backend("lazy")
            # Balls carried across the arrival answer in-radius queries right.
            for s in range(0, n, 2):
                bn, bd = g2.oracle.ball(s, 1)
                rn, rd = fresh.oracle.ball(s, 1)
                assert np.array_equal(bn, rn) and np.array_equal(bd, rd), s


class TestPathOracleNodeAdd:
    """``PathOracle.inherit_node_add`` — min-ID canonical walk survival."""

    def test_inherited_paths_equal_fresh_rebuild(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(8, 28))
            g = _random_graph(rng, n)
            po = PathOracle(g)
            pairs = [
                (int(a), int(b))
                for a, b in rng.integers(0, n, (12, 2))
                if a != b and g.oracle.distance(int(a), int(b)) != UNREACHABLE
            ]
            for a, b in pairs:
                po.path(a, b)
            count, edges = _random_arrival(rng, g)
            g2 = g.with_nodes(count, edges)
            po2 = PathOracle(g2)
            po2.inherit_node_add(po)
            fresh = PathOracle(Graph(g2.n, g2.edges))
            for a, b in pairs:
                assert po2.path(a, b) == fresh.path(a, b), (a, b)

    def test_inherits_count_and_reports(self):
        g = _random_graph(np.random.default_rng(21), 20)
        po = PathOracle(g)
        for a in range(0, 20, 4):
            for b in range(1, 20, 5):
                if a != b:
                    po.path(a, b)
        g2 = g.with_nodes(1, [(0, 20)])
        po2 = PathOracle(g2)
        carried = po2.inherit_node_add(po)
        assert carried >= 0
        assert po2.paths_inherited == carried


class TestLandmarkNodeAdd:
    """Arrivals leave the landmark oracle label-cold, like every delta."""

    def test_non_pendant_arrival_drops_labels(self):
        topo = random_topology(50, 6, seed=7)
        g = topo.graph.use_distance_backend("landmark")
        g.oracle.distance(3, 40)
        # two attachment edges can shorten old pairs: label-cold
        g2 = g.with_nodes(1, [(10, g.n), (30, g.n)])
        assert not g2.oracle.labels_built
        # a two-node batch is label-cold even when each node is pendant
        g3 = g.with_nodes(2, [(10, g.n), (11, g.n + 1)])
        assert not g3.oracle.labels_built

    def test_cold_parent_stays_cold(self):
        topo = random_topology(50, 6, seed=7)
        g = topo.graph.use_distance_backend("landmark")
        assert not g.oracle.labels_built
        g2 = g.with_nodes(1, [(10, g.n)])
        assert not g2.oracle.labels_built


class TestTopologyWithNode:
    def test_unit_disk_edges_match_regeneration(self):
        topo = random_topology(40, 6, seed=9)
        pos = topo.positions[12] + np.asarray([0.01, -0.01])
        t2 = topo.with_node(pos)
        assert t2.n == topo.n + 1
        # edges of the new node are exactly the in-radius old nodes
        diff = topo.positions - pos
        within = np.flatnonzero(
            np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= topo.radius
        )
        assert t2.graph.neighbors(topo.n) == tuple(int(u) for u in within)
        # old structure untouched
        assert t2.graph.edges[: len(topo.graph.edges)] != ()
        assert set(topo.graph.edges) <= set(t2.graph.edges)

    def test_isolated_position_allowed(self):
        topo = random_topology(40, 6, seed=9)
        far = np.asarray([1e6, 1e6])
        t2 = topo.with_node(far)
        assert t2.graph.neighbors(topo.n) == ()
