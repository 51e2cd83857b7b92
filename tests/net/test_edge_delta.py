"""Edge-delta maintenance: ``Graph.with_edge_delta`` and cache inheritance.

The mobility tentpole's contract is exactness: a delta-derived graph and
its inherited caches must be *observationally identical* to a from-scratch
rebuild — rows, balls, canonical paths and certified sources alike.  The
randomized equivalence classes here drive arbitrary add/remove deltas
(including chains, and chains mixed with node removals) against fresh
rebuilds; the edge-case classes pin the corners of node removal — the
delta that drops every incident edge.  Carried canonical paths are
checked against the networkx reference (``NxCanonicalPaths``).
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.graph import Graph
from repro.net.oracle import UNREACHABLE, LazyDistanceOracle
from repro.net.paths import PathOracle
from repro.net.topology import random_topology

from ..conftest import NxCanonicalPaths


def _random_graph(rng, n):
    edges = set()
    for _ in range(n * 2):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph(n, edges)
    g.use_distance_backend("lazy")
    return g


def _random_delta(rng, g, max_each=5):
    cur = set(g.edges)
    non = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in cur
    ]
    rng.shuffle(non)
    lst = sorted(cur)
    rng.shuffle(lst)
    added = non[: int(rng.integers(0, max_each + 1))]
    removed = lst[: int(rng.integers(0, max_each + 1))]
    return added, removed


class TestWithEdgeDelta:
    def test_graph_equals_fresh_rebuild(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            g = _random_graph(rng, n)
            added, removed = _random_delta(rng, g)
            g2 = g.with_edge_delta(added, removed)
            fresh = Graph(n, (set(g.edges) - set(removed)) | set(added))
            assert g2 == fresh
            assert np.array_equal(g2.edge_array, fresh.edge_array)
            for u in range(n):
                assert g2.neighbors(u) == fresh.neighbors(u)

    def test_csr_patched_matches_fresh(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            g = _random_graph(rng, n)
            added, removed = _random_delta(rng, g)
            g2 = g.with_edge_delta(added, removed)
            fresh = Graph(n, (set(g.edges) - set(removed)) | set(added))
            pi, ix = g2.csr_adjacency
            fi, fx = fresh.csr_adjacency
            assert np.array_equal(pi, fi)
            assert np.array_equal(ix, fx)
            assert not pi.flags.writeable and not ix.flags.writeable

    def test_empty_effective_delta_returns_self(self):
        g = _random_graph(np.random.default_rng(2), 12)
        assert g.with_edge_delta([], []) is g
        # Already-present additions and absent removals are ignored.
        e = g.edges[0]
        absent = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        assert g.with_edge_delta([e], [absent]) is g

    def test_overlapping_add_and_remove_rejected(self):
        g = _random_graph(np.random.default_rng(3), 10)
        e = g.edges[0]
        with pytest.raises(InvalidParameterError):
            g.with_edge_delta([e], [e])

    def test_out_of_range_edges_rejected(self):
        g = _random_graph(np.random.default_rng(4), 8)
        with pytest.raises(InvalidParameterError):
            g.with_edge_delta([(0, 99)], [])
        with pytest.raises(InvalidParameterError):
            g.with_edge_delta([], [(0, 99)])

    def test_backend_pin_carries_over(self):
        g = _random_graph(np.random.default_rng(5), 10)
        g2 = g.with_edge_delta([], [g.edges[0]])
        assert g2.distance_backend == "lazy"


class TestOracleDeltaInheritance:
    def test_rows_and_balls_exact_vs_fresh(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(8, 32))
            g = _random_graph(rng, n)
            o = g.oracle
            for s in range(n):
                o.row(s)
            for s in range(0, n, 3):
                o.ball(s, int(rng.integers(0, 4)))
            added, removed = _random_delta(rng, g)
            g2 = g.with_edge_delta(added, removed)
            fresh = Graph(n, set(g2.edges)).use_distance_backend("lazy")
            for s in range(n):
                assert np.array_equal(g2.oracle.row(s), fresh.oracle.row(s))
            for s in range(0, n, 3):
                for rad in range(0, 4):
                    na, da = g2.oracle.ball(s, rad)
                    nb, db = fresh.oracle.ball(s, rad)
                    assert np.array_equal(na, nb)
                    assert np.array_equal(da, db)

    def test_certified_sources_provably_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(8, 32))
            g = _random_graph(rng, n)
            for s in range(n):
                g.oracle.row(s)
            added, removed = _random_delta(rng, g)
            g2 = g.with_edge_delta(added, removed)
            fresh = Graph(n, set(g2.edges)).use_distance_backend("lazy")
            for s in g2.oracle.delta_certified_sources:
                assert np.array_equal(g.oracle.row(s), fresh.oracle.row(s))

    def test_chained_deltas_stay_exact(self):
        rng = np.random.default_rng(12)
        n = 24
        g = _random_graph(rng, n)
        for s in range(n):
            g.oracle.row(s)
        edges = set(g.edges)
        for _ in range(8):
            added, removed = _random_delta(rng, g, max_each=3)
            g = g.with_edge_delta(added, removed)
            edges = (edges - set(removed)) | set(added)
            fresh = Graph(n, edges).use_distance_backend("lazy")
            for s in range(n):
                assert np.array_equal(g.oracle.row(s), fresh.oracle.row(s))

    def test_mixed_node_removals_and_deltas(self):
        rng = np.random.default_rng(13)
        n = 20
        g = _random_graph(rng, n)
        for s in range(n):
            g.oracle.row(s)
        edges = set(g.edges)
        gone: set[int] = set()
        for step in range(6):
            if step % 2 == 0 and n - len(gone) > 3:
                alive = [u for u in range(n) if u not in gone]
                x = int(rng.choice(alive))
                gone.add(x)
                g = g.without_nodes([x])
                edges = {e for e in edges if x not in e}
            else:
                added, removed = _random_delta(rng, g, max_each=3)
                added = [e for e in added if not gone.intersection(e)]
                g = g.with_edge_delta(added, removed)
                edges = (edges - set(removed)) | set(added)
            fresh = Graph(n, edges).use_distance_backend("lazy")
            for s in range(n):
                assert np.array_equal(g.oracle.row(s), fresh.oracle.row(s))

    def test_new_reachability_propagates(self):
        # Two components joined by an added edge: inherited rows must
        # discover the other side exactly.
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        g.use_distance_backend("lazy")
        for s in range(6):
            g.oracle.row(s)
        g2 = g.with_edge_delta([(2, 3)], [])
        assert g2.oracle.distance(0, 5) == 5
        # ... and a removal can re-disconnect it.
        g3 = g2.with_edge_delta([], [(2, 3)])
        assert g3.oracle.distance(0, 5) == UNREACHABLE

    def test_landmark_oracle_inherits_rows_and_drops_labels(self):
        topo = random_topology(80, degree=6.0, seed=9)
        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("landmark")
        o = g.oracle
        assert o.distance(0, 40) >= 1  # builds labels
        assert o.labels_built
        for s in range(0, 80, 5):
            o.row(s)
        g2 = g.with_edge_delta([], [g.edges[0]])
        o2 = g2.oracle
        assert type(o2) is type(o)
        assert not o2.labels_built  # labels never survive a delta
        assert o2.stats().rows_inherited > 0
        fresh = Graph(g.n, g2.edges).use_distance_backend("landmark")
        for s in range(0, 80, 5):
            assert np.array_equal(o2.row(s), fresh.oracle.row(s))
        # Pair queries (label joins after lazy rebuild) stay exact too.
        assert o2.distance(3, 77) == fresh.oracle.distance(3, 77)


class TestInheritFromEdgeCases:
    """Node-removal corners: empty removals, dropped rows, path carry."""

    def test_without_nodes_empty_removal_set(self):
        g = _random_graph(np.random.default_rng(20), 12)
        g2 = g.without_nodes([])
        assert g2 == g
        assert g2 is g  # an empty removal is an empty edge delta

    def test_path_oracle_inherit_with_untouched_paths(self):
        topo = random_topology(60, degree=6.0, seed=2)
        g = topo.graph
        oracle = PathOracle(g)
        for t in range(1, 12):
            oracle.path(0, t)
        # Remove a node on none of the cached paths: everything carries.
        on_paths = {u for t in range(1, 12) for u in oracle.path(0, t)}
        spare = next(u for u in g.nodes() if u not in on_paths)
        g2 = g.without_nodes([spare])
        child = PathOracle(g2)
        carried = child.inherit_from(oracle, spare)
        assert carried == len(oracle)
        ref = NxCanonicalPaths(g2)
        for t in range(1, 12):
            assert child.path(0, t) == ref(0, t)

    def test_removal_of_partially_inherited_rows_source(self):
        # A source whose row the first removal dropped dies next: its
        # row stays absent and every read matches a cold oracle.
        topo = random_topology(120, degree=6.0, seed=4)
        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("lazy")
        src = 0
        row = g.oracle.row(src)
        victim = int(np.flatnonzero(row == 2)[0])  # invalidates src's row
        g2 = g.without_nodes([victim])
        assert g2.oracle.cached_row(src) is None
        g3 = g2.without_nodes([src])
        assert g3.oracle.cached_row(src) is None
        cold2 = Graph(g.n, g2.edges).use_distance_backend("lazy")
        assert np.array_equal(g2.oracle.row(src), cold2.oracle.row(src))
        fresh = Graph(g.n, g3.edges).use_distance_backend("lazy")
        for probe in (src, victim, 5):
            assert np.array_equal(g3.oracle.row(probe), fresh.oracle.row(probe))

    def test_partial_row_then_edge_delta_shrinks_radius_exactly(self):
        # A row a removal dropped stays dropped across the next delta
        # (nothing stale chains forward) and is recomputed exactly.
        topo = random_topology(120, degree=6.0, seed=6)
        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("lazy")
        src = 0
        row = g.oracle.row(src)
        victim = int(np.flatnonzero(row == 3)[0])
        g2 = g.without_nodes([victim])
        assert g2.oracle.cached_row(src) is None
        removed = [g2.edges[len(g2.edges) // 2]]
        g3 = g2.with_edge_delta([], removed)
        assert g3.oracle.cached_row(src) is None
        fresh = Graph(g.n, g3.edges).use_distance_backend("lazy")
        assert np.array_equal(g3.oracle.row(src), fresh.oracle.row(src))

    def test_reexpansion_counts_surface_in_stats(self):
        topo = random_topology(150, degree=6.0, seed=8)
        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("lazy")
        for s in range(10):
            g.oracle.row(s)
        row = g.oracle.row(0)
        victim = int(np.flatnonzero(row == 2)[0])
        g2 = g.without_nodes([victim])
        assert g2.oracle.cached_row(0) is None
        before = g2.oracle.stats().rows_computed
        row2 = g2.oracle.row(0)  # recomputes the dropped row
        assert g2.oracle.stats().rows_computed == before + 1
        fresh = Graph(g.n, g2.edges).use_distance_backend("lazy")
        assert np.array_equal(row2, fresh.oracle.row(0))


class TestPathOracleEdgeDelta:
    def _routed_oracle(self, seed=3, n=90):
        topo = random_topology(n, degree=7.0, seed=seed)
        g = Graph(topo.graph.n, topo.graph.edges)
        g.use_distance_backend("lazy")
        oracle = PathOracle(g)
        rng = np.random.default_rng(seed)
        for _ in range(60):
            u, v = rng.choice(n, size=2, replace=False)
            # A resident root row lets certificate (c) carry the path
            # across added edges; a cold root would always drop it.
            g.oracle.row(int(min(u, v)))
            oracle.path(int(u), int(v))
        return g, oracle

    def test_inherited_paths_are_canonical_on_child(self):
        rng = np.random.default_rng(30)
        for trial in range(10):
            g, oracle = self._routed_oracle(seed=trial)
            added, removed = _random_delta(rng, g, max_each=4)
            g2 = g.with_edge_delta(added, removed)
            touched = {x for e in added for x in e} | {
                x for e in removed for x in e
            }
            child = PathOracle(g2)
            carried = child.inherit_edge_delta(oracle, touched)
            ref = NxCanonicalPaths(g2)
            for key, path in list(child._cache.items()):
                assert path == ref(key[0], key[1])
            assert carried == len(child)

    def test_empty_delta_carries_everything(self):
        g, oracle = self._routed_oracle(seed=5)
        child = PathOracle(g)
        assert child.inherit_edge_delta(oracle, set()) == len(oracle)

    def test_composed_deltas_stay_canonical(self):
        # The disconnected-gap scenario: the parent PathOracle's graph is
        # TWO deltas behind, and ``touched`` is the union.  The carried
        # paths must be canonical on the final graph even though the
        # child oracle's per-delta certificates only speak about the
        # last step.
        rng = np.random.default_rng(40)
        for trial in range(8):
            g0, oracle = self._routed_oracle(seed=trial + 50)
            a1, r1 = _random_delta(rng, g0, max_each=4)
            g1 = g0.with_edge_delta(a1, r1)
            # Touch g1's oracle so the second delta inherits (and
            # certifies) relative to g1, like the mobility loop does.
            for s in range(0, g1.n, 7):
                g1.oracle.row(s)
            a2, r2 = _random_delta(rng, g1, max_each=4)
            g2 = g1.with_edge_delta(a2, r2)
            touched = {
                x for e in [*a1, *r1, *a2, *r2] for x in e
            }
            child = PathOracle(g2)
            child.inherit_edge_delta(oracle, touched)
            ref = NxCanonicalPaths(g2)
            for key, path in list(child._cache.items()):
                assert path == ref(key[0], key[1]), (trial, key)


class TestOracleEmptyDelta:
    def test_direct_empty_delta_inherit_carries_everything(self):
        # Graph.with_edge_delta short-circuits empty deltas, so drive the
        # oracle API directly: everything must carry verbatim through the
        # general path.
        g = _random_graph(np.random.default_rng(60), 20)
        o = g.oracle
        for s in range(20):
            o.row(s)
        o.ball(0, 2)
        child = LazyDistanceOracle(g)
        child.inherit_edge_delta(o, [], [])
        st = child.stats()
        assert st.rows_inherited == 20
        assert st.balls_inherited == 1
        assert child.delta_certified_sources == frozenset(range(20))
        for s in range(20):
            assert np.array_equal(child.row(s), o.row(s))
