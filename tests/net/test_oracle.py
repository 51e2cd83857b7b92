"""Tests for the pluggable distance-oracle subsystem.

The load-bearing property: the lazy CSR backend and the dense all-pairs
backend are *observationally identical* — same distance rows, same balls,
same canonical paths, and same end-to-end backbones — so every consumer
can switch backends freely and only performance changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.errors import InvalidParameterError
from repro.net.generators import grid_graph, path_graph, ring_of_cliques, toroidal_grid
from repro.net.graph import UNREACHABLE, Graph
from repro.net.oracle import (
    BATCH_BITS,
    DENSE_AUTO_MAX,
    DIST_DTYPE,
    MAX_ORACLE_NODES,
    ByteBudgetLRU,
    DenseDistanceOracle,
    LazyDistanceOracle,
    _check_size,
    build_distance_oracle,
    csr_component_labels,
    multi_source_bfs,
    resolve_backend,
)
from repro.net.paths import canonical_path
from repro.net.topology import random_topology

from ..conftest import connected_graphs, ks


def fresh_copy(g: Graph, backend: str) -> Graph:
    """Same structure, cold caches, pinned backend."""
    return Graph(g.n, g.edges).use_distance_backend(backend)


# --------------------------------------------------------------------- #
# backend equivalence (the tentpole property)
# --------------------------------------------------------------------- #


class TestBackendEquivalence:
    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_rows_identical(self, g):
        dense = build_distance_oracle(g, "dense")
        lazy = build_distance_oracle(g, "lazy")
        for u in range(g.n):
            assert np.array_equal(dense.row(u), lazy.row(u))
        # batched form: same values, same dtype, on both backends
        sources = list(range(0, g.n, 2))
        stacked_d = dense.rows(sources)
        stacked_l = lazy.rows(sources)
        assert np.array_equal(stacked_d, stacked_l)
        assert stacked_d.dtype == stacked_l.dtype == DIST_DTYPE
        assert dense.rows([]).shape == lazy.rows([]).shape == (0, g.n)
        # duplicate sources and unsorted order are preserved
        if g.n >= 2:
            dup = [1, 0, 1]
            assert np.array_equal(dense.rows(dup), lazy.rows(dup))

    @given(connected_graphs(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_balls_identical(self, g, radius):
        dense = build_distance_oracle(g, "dense")
        lazy = build_distance_oracle(g, "lazy")
        for u in range(g.n):
            dn, dd = dense.ball(u, radius)
            ln, ld = lazy.ball(u, radius)
            assert np.array_equal(dn, ln)
            assert np.array_equal(dd, ld)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_canonical_paths_identical(self, g):
        gd = fresh_copy(g, "dense")
        gl = fresh_copy(g, "lazy")
        for u in range(g.n):
            for v in range(u, min(g.n, u + 4)):
                assert canonical_path(gd, u, v) == canonical_path(gl, u, v)

    @given(connected_graphs(), ks)
    @settings(max_examples=30, deadline=None)
    def test_backbones_identical(self, g, k):
        results = {}
        for backend in ("dense", "lazy"):
            gb = fresh_copy(g, backend)
            cl = khop_cluster(gb, k)
            bb = build_backbone(cl, "AC-LMST")
            results[backend] = (
                cl.head_of,
                cl.heads,
                bb.selected_links,
                bb.gateways,
            )
        assert results["dense"] == results["lazy"]

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_disconnected_rows_identical(self, g):
        # Add isolated nodes so UNREACHABLE entries appear in both backends.
        g2 = Graph(g.n + 2, g.edges)
        dense = build_distance_oracle(g2, "dense")
        lazy = build_distance_oracle(g2, "lazy")
        for u in range(g2.n):
            assert np.array_equal(dense.row(u), lazy.row(u))
        assert dense.distance(0, g2.n - 1) == UNREACHABLE
        assert lazy.distance(0, g2.n - 1) == UNREACHABLE

    def test_huge_radius_ball_excludes_unreachable_on_both_backends(self):
        g = Graph(4, [(0, 1), (2, 3)])  # two components
        for backend in ("dense", "lazy"):
            oracle = build_distance_oracle(g, backend)
            nodes, dists = oracle.ball(0, UNREACHABLE)
            assert nodes.tolist() == [0, 1], backend
            assert dists.tolist() == [0, 1], backend
        assert g.khop_neighbors(0, UNREACHABLE) == (1,)

    def test_huge_radius_ball_after_row_is_cached(self):
        # The lazy backend's cached-row fast path must apply the same
        # sentinel guard as a cold ball query.
        g = Graph(4, [(0, 1), (2, 3)])
        oracle = build_distance_oracle(g, "lazy")
        oracle.row(0)  # warm the row cache
        nodes, dists = oracle.ball(0, UNREACHABLE)
        assert nodes.tolist() == [0, 1]
        assert dists.tolist() == [0, 1]


# --------------------------------------------------------------------- #
# structured scenarios (hand-checkable)
# --------------------------------------------------------------------- #


class TestLazyOracleStructured:
    def test_path_graph_rows(self):
        g = path_graph(6).use_distance_backend("lazy")
        assert g.bfs_distances(0).tolist() == [0, 1, 2, 3, 4, 5]
        assert g.hop_distance(1, 5) == 4

    def test_grid_ball(self):
        g = grid_graph(4, 4).use_distance_backend("lazy")
        nodes, dists = g.oracle.ball(0, 1)
        assert nodes.tolist() == [0, 1, 4]
        assert dists.tolist() == [0, 1, 1]

    def test_toroidal_grid_wraps(self):
        g = toroidal_grid(5, 5).use_distance_backend("lazy")
        assert all(g.degree(u) == 4 for u in g.nodes())
        assert g.hop_distance(0, 4) == 1  # wraparound column
        assert g.hop_distance(0, 20) == 1  # wraparound row

    def test_ring_of_cliques_distances(self):
        g = ring_of_cliques(4, 5).use_distance_backend("lazy")
        assert g.n == 20 and g.is_connected()
        assert g.hop_distance(1, 2) == 1  # same clique
        assert g.hop_distance(0, 5) == 1  # bridge
        assert g.hop_distance(1, 6) == 3  # member - bridge - bridge - member


# --------------------------------------------------------------------- #
# cache policy and introspection
# --------------------------------------------------------------------- #


class TestLazyCachePolicy:
    def test_row_cache_hits(self):
        g = grid_graph(5, 5)
        oracle = LazyDistanceOracle(g)
        oracle.row(3)
        oracle.row(3)
        s = oracle.stats()
        assert s.rows_computed == 1 and s.row_hits >= 1

    def test_distance_reuses_either_endpoint_row(self):
        g = path_graph(8)
        oracle = LazyDistanceOracle(g)
        oracle.row(5)
        assert oracle.distance(2, 5) == 3  # answered from 5's cached row
        assert oracle.stats().rows_computed == 1

    def test_ball_answered_from_cached_row(self):
        g = grid_graph(5, 5)
        oracle = LazyDistanceOracle(g)
        oracle.row(12)
        nodes, dists = oracle.ball(12, 2)
        s = oracle.stats()
        assert s.balls_computed == 0 and s.ball_hits == 1
        assert dists.max() <= 2 and nodes[0] == 2  # (0-indexed sorted ball)

    def test_eviction_under_tiny_budget_stays_correct(self):
        g = grid_graph(6, 6)
        oracle = LazyDistanceOracle(g, row_cache_bytes=0, ball_cache_bytes=0)
        reference = LazyDistanceOracle(g)
        for u in range(g.n):
            assert np.array_equal(oracle.row(u), reference.row(u))
        # budget 0 keeps at most one entry resident
        assert oracle.stats().cached_bytes <= reference.row(0).nbytes

    def test_rows_are_read_only(self):
        g = path_graph(4).use_distance_backend("lazy")
        row = g.bfs_distances(0)
        with pytest.raises(ValueError):
            row[0] = 9

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            LazyDistanceOracle(path_graph(3), row_cache_bytes=-1)

    def test_negative_radius_rejected(self):
        for backend in ("dense", "lazy"):
            oracle = build_distance_oracle(path_graph(3), backend)
            with pytest.raises(InvalidParameterError):
                oracle.ball(0, -1)


# --------------------------------------------------------------------- #
# backend selection and the overflow guard
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_auto_policy(self):
        assert resolve_backend("auto", DENSE_AUTO_MAX) == "dense"
        assert resolve_backend(None, DENSE_AUTO_MAX + 1) == "lazy"
        assert resolve_backend("dense", 10_000) == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_distance_oracle(path_graph(3), "sparse-ish")
        with pytest.raises(InvalidParameterError):
            path_graph(3).use_distance_backend("nope")

    def test_dense_backend_rejects_lazy_options(self):
        with pytest.raises(InvalidParameterError):
            build_distance_oracle(path_graph(3), "dense", row_cache_bytes=1)

    def test_oracle_cached_per_backend(self):
        g = path_graph(5)
        assert g.distance_oracle("lazy") is g.distance_oracle("lazy")
        assert g.distance_oracle("dense") is not g.distance_oracle("lazy")

    def test_hop_distances_compat_always_dense(self):
        g = path_graph(5).use_distance_backend("lazy")
        assert not g.dense_materialized
        m = g.hop_distances
        assert m.shape == (5, 5) and g.dense_materialized
        assert g.distance_backend == "lazy"  # default backend unchanged

    def test_pinned_backend_restores_policy(self):
        g = grid_graph(3, 3)
        assert g.distance_backend == "dense"  # auto policy at this size
        with g.pinned_distance_backend("lazy"):
            assert g.distance_backend == "lazy"
        assert g.distance_backend == "dense"

    def test_run_pipeline_backend_is_per_call(self):
        from repro.core.pipeline import run_pipeline

        g = grid_graph(4, 4)
        run_pipeline(g, 1, distance_backend="lazy")
        assert g.distance_backend == "dense"  # auto policy restored

    def test_ball_map(self):
        for backend in ("dense", "lazy"):
            oracle = build_distance_oracle(path_graph(5), backend)
            assert oracle.ball_map(2, 1) == {1: 1, 2: 0, 3: 1}

    def test_without_nodes_inherits_backend(self):
        g = grid_graph(3, 3).use_distance_backend("lazy")
        assert g.without_nodes([4]).distance_backend == "lazy"
        assert g.with_edge_delta([(0, 8)]).distance_backend == "lazy"

    def test_overflow_guard(self):
        # n beyond the int32 ceiling can't be instantiated as a Graph in
        # test memory; the guard predicate itself is the contract.
        with pytest.raises(InvalidParameterError, match="int32"):
            _check_size(MAX_ORACLE_NODES + 1)
        _check_size(MAX_ORACLE_NODES)  # boundary passes

    def test_beyond_old_int16_ceiling_now_supported(self):
        # The seed refused graphs above 32766 nodes (int16 sentinel
        # collision); int32 storage raises the ceiling behind the same
        # API.  40k isolated nodes + one edge keeps the check cheap.
        n = 40_000
        assert n > np.iinfo(np.int16).max
        g = Graph(n, [(0, 1)])
        oracle = g.distance_oracle("lazy")
        row = oracle.row(0)
        assert row.dtype == DIST_DTYPE
        assert int(row[1]) == 1 and int(row[n - 1]) == UNREACHABLE


# --------------------------------------------------------------------- #
# the bit-packed batched BFS kernel
# --------------------------------------------------------------------- #


class TestBatchedKernel:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_single_source_bfs(self, g):
        from repro.net.oracle import _csr_bfs

        indptr, indices = g.csr_adjacency
        batch = multi_source_bfs(indptr, indices, g.n, list(range(g.n)))
        assert batch.dtype == DIST_DTYPE
        for u in range(g.n):
            ref, _ = _csr_bfs(indptr, indices, g.n, u)
            assert np.array_equal(batch[u], ref)

    def test_multi_word_frontier(self):
        # 81 sources > 64 exercises the 2-word (W=2) bitset path.
        g = toroidal_grid(9, 9)
        indptr, indices = g.csr_adjacency
        batch = multi_source_bfs(indptr, indices, g.n, list(range(g.n)))
        lazy = build_distance_oracle(g, "lazy")
        for u in range(g.n):
            assert np.array_equal(batch[u], lazy.row(u))

    def test_duplicate_and_unsorted_sources(self):
        g = grid_graph(4, 5)
        indptr, indices = g.csr_adjacency
        srcs = [7, 3, 7, 0, 19, 3]
        batch = multi_source_bfs(indptr, indices, g.n, srcs)
        lazy = build_distance_oracle(g, "lazy")
        for i, s in enumerate(srcs):
            assert np.array_equal(batch[i], lazy.row(s))

    def test_isolated_and_disconnected_sources(self):
        g = Graph(70, [(0, 1), (2, 3)])  # mostly isolated nodes
        indptr, indices = g.csr_adjacency
        batch = multi_source_bfs(indptr, indices, g.n, list(range(g.n)))
        assert int(batch[0, 1]) == 1
        assert int(batch[0, 2]) == UNREACHABLE
        assert int(batch[69, 69]) == 0
        assert (batch[69, :69] == UNREACHABLE).all()

    def test_empty_inputs(self):
        g = path_graph(3)
        indptr, indices = g.csr_adjacency
        assert multi_source_bfs(indptr, indices, 3, []).shape == (0, 3)
        lonely = Graph(4)
        ip, ix = lonely.csr_adjacency
        batch = multi_source_bfs(ip, ix, 4, [2])
        assert int(batch[0, 2]) == 0 and int(batch[0, 0]) == UNREACHABLE

    def test_lazy_rows_use_batched_sweeps_and_cache(self):
        g = toroidal_grid(10, 10)
        oracle = LazyDistanceOracle(g)
        oracle.rows(range(g.n))
        s = oracle.stats()
        assert s.rows_computed == g.n
        assert s.batched_sweeps == (g.n + BATCH_BITS - 1) // BATCH_BITS
        oracle.rows([5, 6])
        assert oracle.stats().row_hits >= 2  # answered from cache


# --------------------------------------------------------------------- #
# the shared byte-budget LRU policy
# --------------------------------------------------------------------- #


class TestByteBudgetLRU:
    def test_evicts_least_recently_used_first(self):
        lru = ByteBudgetLRU(100)
        lru.put("a", 1, 40)
        lru.put("b", 2, 40)
        assert lru.get("a") == 1  # touch a; b becomes LRU
        lru.put("c", 3, 40)  # over budget: b evicted
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.nbytes == 80

    def test_always_keeps_one_entry(self):
        lru = ByteBudgetLRU(0)
        lru.put("big", object(), 10**9)
        assert "big" in lru and len(lru) == 1

    def test_replacement_updates_accounting(self):
        lru = ByteBudgetLRU(100)
        lru.put("a", 1, 60)
        lru.put("a", 2, 10)
        assert lru.nbytes == 10 and lru.get("a") == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            ByteBudgetLRU(-1)


# --------------------------------------------------------------------- #
# CSR adjacency
# --------------------------------------------------------------------- #


class TestCSR:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_matches_adjacency(self, g):
        indptr, indices = g.csr_adjacency
        assert indptr[0] == 0 and indptr[-1] == 2 * g.m
        for u in range(g.n):
            assert indices[indptr[u] : indptr[u + 1]].tolist() == list(
                g.neighbors(u)
            )

    def test_csr_read_only(self):
        indptr, indices = path_graph(4).csr_adjacency
        with pytest.raises(ValueError):
            indptr[0] = 1


class TestComponentLabels:
    """Label propagation vs networkx components, whole graph and masked."""

    @staticmethod
    def _check(g, mask):
        import networkx as nx

        labels, count = csr_component_labels(*g.csr_adjacency, mask)
        nxg = g.to_networkx()
        if mask is not None:
            nxg = nxg.subgraph(np.flatnonzero(mask).tolist())
        comps = list(nx.connected_components(nxg))
        assert count == len(comps)
        for comp in comps:
            assert set(labels[sorted(comp)].tolist()) == {min(comp)}
        if mask is not None:
            outside = np.flatnonzero(~mask)
            assert (labels[outside] == outside).all()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        g = Graph(n, [(int(a), int(b)) for a, b in pairs if a != b])
        self._check(g, None)
        self._check(g, rng.random(n) < 0.6)

    def test_long_path_with_shuffled_ids(self):
        # The worst shape for a BFS (one level per node) and a stress on
        # hooking order: a 500-node path whose IDs are a permutation.
        order = np.random.default_rng(1).permutation(500)
        g = Graph(500, zip(order[:-1].tolist(), order[1:].tolist()))
        labels, count = csr_component_labels(*g.csr_adjacency)
        assert count == 1 and (labels == 0).all()
        mask = np.ones(500, dtype=bool)
        mask[order[250]] = False  # cut the path in the middle
        self._check(g, mask)


# --------------------------------------------------------------------- #
# depth-limited batched kernel + ball warm-up
# --------------------------------------------------------------------- #


class TestBatchedBalls:
    @given(connected_graphs(), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_max_depth_truncates_exactly(self, g, depth):
        """Depth-limited batched rows equal clipped full rows."""
        indptr, indices = g.csr_adjacency
        sources = list(range(g.n))
        full = multi_source_bfs(indptr, indices, g.n, sources)
        limited = multi_source_bfs(
            indptr, indices, g.n, sources, max_depth=depth
        )
        expect = np.where(full <= depth, full, UNREACHABLE)
        assert (limited == expect).all()

    @given(connected_graphs(), ks)
    @settings(max_examples=40, deadline=None)
    def test_prepare_balls_matches_per_source_balls(self, g, k):
        """Warmed balls are bit-identical to on-demand depth-limited BFS."""
        cold = LazyDistanceOracle(Graph(g.n, g.edges))
        warm = LazyDistanceOracle(Graph(g.n, g.edges))
        computed = warm.prepare_balls(range(g.n), k)
        assert computed == g.n
        for u in range(g.n):
            cn, cd = cold.ball(u, k)
            wn, wd = warm.ball(u, k)
            assert (cn == wn).all() and (cd == wd).all()
        # every post-warm-up query was a cache hit
        assert warm.stats().balls_computed == g.n
        assert warm.stats().ball_hits == g.n

    def test_prepare_balls_skips_cached_sources(self):
        g = grid_graph(6, 6)
        oracle = LazyDistanceOracle(g)
        oracle.ball(0, 2)
        assert oracle.prepare_balls(range(g.n), 2) == g.n - 1
        assert oracle.prepare_balls(range(g.n), 2) == 0

    def test_prepare_balls_counts_sweeps(self):
        g = toroidal_grid(12, 12)  # 144 nodes -> 3 sweeps of 64
        oracle = LazyDistanceOracle(g)
        oracle.prepare_balls(range(g.n), 2)
        assert oracle.stats().batched_sweeps == (g.n + BATCH_BITS - 1) // BATCH_BITS

    def test_dense_backend_ignores_the_hint(self):
        g = path_graph(8)
        oracle = DenseDistanceOracle(g)
        assert oracle.prepare_balls(range(g.n), 2) == 0
        nodes, dists = oracle.ball(3, 2)
        assert nodes.tolist() == [1, 2, 3, 4, 5]
        assert dists.tolist() == [2, 1, 0, 1, 2]

    def test_negative_radius_rejected(self):
        oracle = LazyDistanceOracle(path_graph(4))
        with pytest.raises(InvalidParameterError):
            oracle.prepare_balls([0], -1)


class TestPartialRowInheritance:
    """Invalidated rows keep their valid prefix and resume, not restart."""

    @staticmethod
    def warm(g: Graph, step: int = 5) -> Graph:
        g = g.use_distance_backend("lazy")
        for s in range(0, g.n, step):
            g.oracle.row(s)
        return g

    def test_partial_rows_recorded_and_exact(self):
        g = self.warm(random_topology(250, degree=8.0, seed=9).graph)
        removed = 17
        g2 = g.without_nodes([removed])
        oracle = g2.distance_oracle("lazy")
        stats = oracle.stats()
        # the removal is reachable from most warmed sources: their rows
        # must be salvaged partially rather than dropped
        assert stats.rows_partial_inherited > 0
        truth = LazyDistanceOracle(Graph(g.n, g2.edges))
        for s in range(0, g.n, 5):
            assert np.array_equal(oracle.row(s), truth.row(s)), s
        stats = oracle.stats()
        assert stats.rows_reexpanded == stats.rows_partial_inherited

    def test_prefix_entries_survive_unread(self):
        # entries at distance <= d(source, removed) are carried verbatim
        g = self.warm(toroidal_grid(10, 10))
        source = 0
        row_before = np.array(g.oracle.row(source))
        removed = int(np.flatnonzero(row_before == 3)[0])
        g2 = g.without_nodes([removed])
        oracle = g2.distance_oracle("lazy")
        after = oracle.row(source)
        near = row_before <= 3
        near[removed] = False
        assert np.array_equal(after[near], row_before[near])
        assert after[removed] == UNREACHABLE

    def test_chained_removals_shrink_radius_and_stay_exact(self):
        g = self.warm(random_topology(200, degree=8.0, seed=21).graph)
        current = g
        gone: list[int] = []
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = int(rng.integers(0, g.n))
            while x in gone:
                x = int(rng.integers(0, g.n))
            gone.append(x)
            current = current.without_nodes([x])
        oracle = current.distance_oracle("lazy")
        truth = LazyDistanceOracle(Graph(g.n, current.edges))
        for s in range(0, g.n, 5):
            assert np.array_equal(oracle.row(s), truth.row(s)), s

    def test_rows_batch_recomputes_and_retires_partials(self):
        g = self.warm(random_topology(200, degree=8.0, seed=23).graph)
        g2 = g.without_nodes([11])
        oracle = g2.distance_oracle("lazy")
        pending = oracle.stats().rows_partial_inherited
        assert pending > 0
        sources = list(range(0, g.n, 5))
        block = oracle.rows(sources)
        truth = LazyDistanceOracle(Graph(g.n, g2.edges))
        for i, s in enumerate(sources):
            assert np.array_equal(block[i], truth.row(s)), s
        # the batch goes through the bit-packed kernel (per-source BFS
        # resumption cannot beat its amortization) and the fresh rows
        # retire the stale partials
        assert oracle.stats().rows_reexpanded == 0
        assert len(oracle._partial_rows) == 0

    def test_removed_source_row_recomputed_cold(self):
        g = self.warm(path_graph(12), step=1)
        g2 = g.without_nodes([4])
        oracle = g2.distance_oracle("lazy")
        row = oracle.row(4)  # the dead node itself: isolated
        assert row[4] == 0
        assert (np.delete(row, 4) == UNREACHABLE).all()

    def test_fresh_row_supersedes_partial(self):
        g = self.warm(toroidal_grid(8, 8), step=4)
        g2 = g.without_nodes([9])
        oracle = g2.distance_oracle("lazy")
        pending = oracle.stats().rows_partial_inherited
        assert pending > 0
        for s in range(0, g.n, 4):
            oracle.row(s)
        # a second removal must not resurrect pre-first-removal state
        g3 = g2.without_nodes([33])
        oracle3 = g3.distance_oracle("lazy")
        truth = LazyDistanceOracle(Graph(g.n, g3.edges))
        for s in range(0, g.n, 4):
            assert np.array_equal(oracle3.row(s), truth.row(s)), s

    def test_partial_rows_bounded_by_row_budget(self):
        g = random_topology(120, degree=8.0, seed=29).graph
        n = g.n
        row_bytes = n * 4
        oracle = LazyDistanceOracle(g, row_cache_bytes=3 * row_bytes)
        for s in range(0, n, 2):
            oracle.row(s)
        child = LazyDistanceOracle(
            g.without_nodes([1]), row_cache_bytes=3 * row_bytes
        )
        child.inherit_edge_delta(oracle, [], [(1, v) for v in g.neighbors(1)])
        # pending stale rows obey the same byte discipline as the cache
        assert len(child._partial_rows) <= 3

    def test_partial_rows_count_toward_cached_bytes(self):
        # Pending partials are held outside the LRU, but they are held:
        # cached_bytes and its peak must include them.
        g = toroidal_grid(40, 40).use_distance_backend("lazy")
        for s in range(200):
            g.oracle.row(s)
        g2 = g.without_nodes([5])
        stats = g2.oracle.stats()
        pending = stats.rows_partial_inherited
        assert pending > 150
        row_bytes = g.n * np.dtype(np.int32).itemsize
        assert stats.cached_bytes == pending * row_bytes
        assert stats.peak_cached_bytes >= stats.cached_bytes


class TestLineageConservation:
    """``lineage_*`` stats conserve query totals across inherit chains.

    Per-oracle counters are snapshot-and-zeroed at every inheritance
    (no counter-reset drift), so ``lineage_rows_computed +
    lineage_row_hits`` must equal every ``row()`` call the chain ever
    answered — the :class:`~repro.net.oracle.OracleStats` contract.
    """

    @staticmethod
    def query_rows(g: Graph, step: int) -> int:
        """Issue one ``row()`` per sampled source; return the call count."""
        count = 0
        for s in range(0, g.n, step):
            g.oracle.row(s)
            count += 1
        return count

    def test_chained_removals_conserve_row_totals(self):
        g = random_topology(150, degree=8.0, seed=31).graph
        g = g.use_distance_backend("lazy")
        calls = self.query_rows(g, 5)
        calls += self.query_rows(g, 5)  # repeat pass: pure cache hits
        current = g
        for removed in (3, 40, 77):
            current = current.without_nodes([removed])
            calls += self.query_rows(current, 7)
        stats = current.oracle.stats()
        assert stats.lineage_inherits == 3
        assert stats.lineage_rows_computed + stats.lineage_row_hits == calls
        # the hit side is non-trivial in both directions
        assert stats.lineage_row_hits > 0
        assert stats.lineage_rows_computed > 0

    def test_per_oracle_counters_cover_post_inheritance_work_only(self):
        g = random_topology(120, degree=8.0, seed=33).graph
        g = g.use_distance_backend("lazy")
        self.query_rows(g, 4)
        parent_stats = g.oracle.stats()
        child = g.without_nodes([7])
        round_calls = self.query_rows(child, 6)
        stats = child.oracle.stats()
        assert stats.rows_computed + stats.row_hits == round_calls
        assert stats.lineage_inherits == 1
        assert (
            stats.lineage_rows_computed + stats.lineage_row_hits
            == parent_stats.rows_computed + parent_stats.row_hits + round_calls
        )

    def test_edge_delta_inheritance_conserves_row_totals(self):
        g = random_topology(120, degree=8.0, seed=35).graph
        g = g.use_distance_backend("lazy")
        calls = self.query_rows(g, 4)
        dropped = g.edges[0]
        derived = g.with_edge_delta(removed=[dropped])
        assert derived is not g  # the delta was effective
        calls += self.query_rows(derived, 4)
        stats = derived.oracle.stats()
        assert stats.lineage_inherits == 1
        assert stats.lineage_rows_computed + stats.lineage_row_hits == calls
