"""Tests for canonical shortest paths and the PathOracle.

Every path is checked against :class:`~tests.conftest.NxCanonicalPaths`,
the networkx walk-back reference, never against :func:`canonical_path`.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedGraphError
from repro.net.generators import cycle_graph, grid_graph, path_graph
from repro.net.graph import Graph
from repro.net.oracle import BATCH_BITS
from repro.net.paths import PathOracle, canonical_path, path_interior

from ..conftest import NxCanonicalPaths, connected_graphs


class TestCanonicalPath:
    def test_trivial(self):
        g = path_graph(3)
        assert canonical_path(g, 1, 1) == (1,)

    def test_path_graph(self):
        g = path_graph(5)
        assert canonical_path(g, 0, 4) == (0, 1, 2, 3, 4)
        assert canonical_path(g, 4, 0) == (4, 3, 2, 1, 0)

    def test_tie_break_prefers_lower_ids(self):
        # two parallel 2-hop routes 0-1-3 and 0-2-3: must take node 1
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert canonical_path(g, 0, 3) == (0, 1, 3)

    def test_orientation_symmetry(self):
        g = cycle_graph(8)
        p = canonical_path(g, 1, 5)
        q = canonical_path(g, 5, 1)
        assert p == tuple(reversed(q))

    def test_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            canonical_path(g, 0, 2)

    def test_interior(self):
        assert path_interior((1, 2, 3, 4)) == (2, 3)
        assert path_interior((1, 2)) == ()

    @given(connected_graphs(), st.data())
    @settings(max_examples=50)
    def test_path_is_shortest_and_valid(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 1))
        p = canonical_path(g, u, v)
        assert p[0] == u and p[-1] == v
        assert len(p) == nx.shortest_path_length(g.to_networkx(), u, v) + 1
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
        assert len(set(p)) == len(p)  # simple path

    @given(connected_graphs(), st.data())
    @settings(max_examples=50)
    def test_reversal_symmetry_property(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 1))
        assert canonical_path(g, u, v) == tuple(
            reversed(canonical_path(g, v, u))
        )

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_reference(self, g):
        ref = NxCanonicalPaths(g)
        for u in range(g.n):
            for v in range(g.n):
                assert canonical_path(g, u, v) == ref(u, v), (u, v)


class TestPathOracle:
    def test_caches_per_unordered_pair(self):
        g = grid_graph(3, 3)
        oracle = PathOracle(g)
        p1 = oracle.path(0, 8)
        p2 = oracle.path(8, 0)
        assert p1 == tuple(reversed(p2))
        assert len(oracle) == 1

    def test_distance_matches_graph(self):
        g = grid_graph(2, 5)
        oracle = PathOracle(g)
        assert oracle.distance(0, 9) == g.hop_distance(0, 9)

    def test_interior_shortcut(self):
        g = path_graph(4)
        oracle = PathOracle(g)
        assert oracle.interior(0, 3) == (1, 2)

    def test_same_node(self):
        oracle = PathOracle(path_graph(2))
        assert oracle.path(1, 1) == (1,)
        assert len(oracle) == 0

    def test_matches_canonical(self):
        g = grid_graph(4, 4)
        oracle = PathOracle(g)
        ref = NxCanonicalPaths(g)
        for u, v in [(0, 15), (3, 12), (5, 10), (12, 3)]:
            assert oracle.path(u, v) == ref(u, v)

    def test_cache_is_byte_bounded(self):
        # A tiny budget keeps at most one resident path; answers stay
        # correct because evicted paths are simply recomputed.
        g = grid_graph(5, 5)
        bounded = PathOracle(g, cache_bytes=1)
        ref = NxCanonicalPaths(g)
        pairs = [(0, 24), (4, 20), (2, 22), (0, 24)]
        for u, v in pairs:
            assert bounded.path(u, v) == ref(u, v)
        assert len(bounded) == 1
        stats = bounded.stats()
        assert stats.backend == "path-cache"
        # (0, 24) was evicted by later pairs, so its repeat recomputed
        assert stats.paths_computed == 4 and stats.path_hits == 0

    def test_stats_report_hits_and_bytes(self):
        g = grid_graph(4, 4)
        oracle = PathOracle(g)
        oracle.path(0, 15)
        oracle.path(15, 0)  # same unordered pair: a hit
        stats = oracle.stats()
        assert stats.paths_computed == 1
        assert stats.path_hits == 1
        assert 0 < stats.cached_bytes <= stats.peak_cached_bytes


@st.composite
def path_batches(draw):
    """A ``paths()`` batch over a connected graph plus one detached edge.

    The graph has 90-120 connected nodes; the detached edge is the last
    two nodes.  The batch spans more than ``BATCH_BITS + 12`` distinct
    roots (so swept roots fill more than one sweep even after the warm
    rows and pre-cached pairs take theirs), both orientations of some
    pairs, duplicates, self pairs and the detached edge.  Also drawn: up
    to 11 roots whose rows are resident before the batch, 5 pairs
    already in the path cache, and the distance backend.
    """
    g = draw(connected_graphs(min_n=90, max_n=120, max_extra=150))
    n = g.n
    g = Graph(n + 2, [*g.edges, (n, n + 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(rng.integers(BATCH_BITS + 18, n - 1))
    roots = rng.choice(n - 1, size=size, replace=False)
    pairs = []
    for r in roots.tolist():
        for t in rng.integers(r + 1, n, size=int(rng.integers(1, 4))).tolist():
            pairs.append((r, t) if rng.random() < 0.5 else (t, r))
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), 10).tolist()]
    pairs += [pairs[i][::-1] for i in rng.integers(0, len(pairs), 10).tolist()]
    pairs += [(x, x) for x in rng.integers(0, n + 2, 3).tolist()]
    pairs.append((n + 1, n))
    pairs = [pairs[i] for i in rng.permutation(len(pairs)).tolist()]
    warm = rng.choice(roots, size=int(rng.integers(1, 12)), replace=False)
    cached = [pairs[i] for i in rng.integers(0, len(pairs), 5).tolist()]
    backend = draw(st.sampled_from(("lazy", "landmark")))
    return g.use_distance_backend(backend), pairs, set(warm.tolist()), cached


def _unordered(pair):
    return (min(pair), max(pair))


class TestBatchedPaths:
    """``PathOracle.paths`` against the networkx reference."""

    @given(path_batches())
    @settings(max_examples=25, deadline=None)
    def test_paths_match_networkx_reference(self, case):
        g, pairs, warm, cached = case
        ref = NxCanonicalPaths(g)
        oracle = PathOracle(g)
        for u, v in cached:
            oracle.path(u, v)
        for r in warm:
            g.oracle.row(r)
        before, rows_before = oracle.stats(), g.oracle.stats()

        got = oracle.paths(pairs)
        assert set(got) == set(pairs)
        for (u, v), path in got.items():
            assert path == ref(u, v), (u, v)

        # Each distinct requested pair counts once, as a hit or computed;
        # a walk on a resident row counts one row hit.
        asked = {p for p in pairs if p[0] != p[1]}
        cold = {_unordered(p) for p in asked} - {
            _unordered(p) for p in cached if p[0] != p[1]
        }
        after, rows_after = oracle.stats(), g.oracle.stats()
        assert after.paths_computed - before.paths_computed == len(cold)
        assert after.path_hits - before.path_hits == len(asked) - len(cold)
        on_rows = [s for s, _ in cold if s in warm]
        assert rows_after.row_hits - rows_before.row_hits == len(on_rows)
        assert rows_after.rows_computed == rows_before.rows_computed
        swept = sorted({s for s, _ in cold} - warm)
        assert len(swept) > BATCH_BITS
        chunks = [
            set(swept[i : i + BATCH_BITS]) for i in range(0, len(swept), BATCH_BITS)
        ]
        assert after.batched_sweeps - before.batched_sweeps == len(chunks)
        levels = sum(
            max(len(ref(s, t)) - 1 for s, t in cold if s in chunk)
            for chunk in chunks
        )
        assert after.sweep_levels - before.sweep_levels == levels

        # A pair across components raises, from a resident row or a sweep.
        far = g.n - 1
        for root in (min(warm), swept[0]):
            with pytest.raises(DisconnectedGraphError):
                oracle.paths([*pairs, (far, root)])

    def test_miss_sweeps_without_caching_a_row(self):
        g = grid_graph(6, 6)
        oracle = PathOracle(g)
        assert oracle.path(14, 0) == NxCanonicalPaths(g)(14, 0)
        assert g.oracle.cached_row(0) is None
        assert g.oracle.stats().rows_computed == 0
        stats = oracle.stats()
        assert (stats.batched_sweeps, stats.sweep_levels) == (1, 4)
        assert (stats.paths_computed, stats.path_hits) == (1, 0)

    def test_resident_row_is_walked_with_one_row_hit(self):
        g = grid_graph(6, 6)
        oracle = PathOracle(g)
        g.oracle.row(1)
        hits = g.oracle.stats().row_hits
        got = oracle.paths([(35, 1), (1, 20), (1, 35)])
        ref = NxCanonicalPaths(g)
        assert got == {p: ref(*p) for p in [(35, 1), (1, 20), (1, 35)]}
        assert g.oracle.stats().row_hits == hits + 2
        stats = oracle.stats()
        assert stats.batched_sweeps == 0
        assert (stats.paths_computed, stats.path_hits) == (2, 1)

    def test_disconnected_pair_raises(self):
        oracle = PathOracle(Graph(4, [(0, 1), (2, 3)]))
        assert oracle.paths([(1, 0), (3, 3)]) == {(1, 0): (1, 0), (3, 3): (3,)}
        with pytest.raises(DisconnectedGraphError):
            oracle.paths([(0, 1), (1, 2)])
