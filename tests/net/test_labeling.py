"""Equivalence tests for the landmark backend, batched rows, and
incremental (post-removal) oracle states.

The load-bearing property of the whole acceleration layer: the
``landmark`` backend's label joins and the lazy backend's bit-packed
batched rows are *observationally identical* to plain per-source BFS —
on the paper's unit-disk instances, on structured large-diameter
scenarios (toroidal grid, ring of cliques), and on the incrementally
derived graphs churn produces via single-node removals.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import InvalidParameterError
from repro.net.generators import ring_of_cliques, toroidal_grid
from repro.net.graph import UNREACHABLE, Graph
from repro.net.labeling import (
    _HUB_INF,
    LandmarkDistanceOracle,
    _build_pruned_labels_reference,
    build_pruned_labels,
)
from repro.net.oracle import (
    BATCH_BITS,
    DIST_DTYPE,
    LazyDistanceOracle,
    build_distance_oracle,
    resolve_backend,
)
from repro.net.topology import random_topology

from ..conftest import connected_graphs


def unit_disk(n: int, seed: int) -> Graph:
    """A connected unit-disk instance in the paper's regime."""
    return random_topology(n, degree=8.0, seed=seed).graph


#: The three scenario families the satellite task names.
SCENARIOS = [
    pytest.param(lambda: unit_disk(60, 11), id="unit-disk-60"),
    pytest.param(lambda: unit_disk(150, 13), id="unit-disk-150"),
    pytest.param(lambda: toroidal_grid(8, 9), id="toroidal-8x9"),
    pytest.param(lambda: toroidal_grid(12, 12), id="toroidal-12x12"),
    pytest.param(lambda: ring_of_cliques(6, 7), id="ring-of-cliques-6x7"),
    pytest.param(lambda: ring_of_cliques(12, 4), id="ring-of-cliques-12x4"),
]


def reference_rows(g: Graph) -> np.ndarray:
    """Ground truth: plain per-source CSR BFS rows."""
    ref = LazyDistanceOracle(g)
    return np.stack([ref.row(u) for u in range(g.n)])


@pytest.mark.parametrize("make", SCENARIOS)
def test_landmark_and_batched_agree_on_scenarios(make):
    g = make()
    truth = reference_rows(Graph(g.n, g.edges))
    lazy = build_distance_oracle(g, "lazy")
    landmark = build_distance_oracle(g, "landmark")
    assert isinstance(landmark, LandmarkDistanceOracle)
    # batched rows (all sources at once -> multiple bit-packed sweeps)
    assert np.array_equal(lazy.rows(range(g.n)), truth)
    # landmark pair queries against every truth entry
    rng = np.random.default_rng(7)
    us = rng.integers(0, g.n, 250)
    vs = rng.integers(0, g.n, 250)
    for u, v in zip(us.tolist(), vs.tolist()):
        assert landmark.distance(u, v) == int(truth[u, v])
    # bulk pair APIs
    pairs = list(zip(us.tolist(), vs.tolist()))
    assert np.array_equal(
        landmark.pair_distances(pairs), truth[us, vs].astype(DIST_DTYPE)
    )
    nodes = sorted({int(x) for x in rng.integers(0, g.n, 12)})
    assert np.array_equal(
        landmark.pairwise_distances(nodes),
        truth[np.ix_(nodes, nodes)],
    )


@pytest.mark.parametrize("make", SCENARIOS)
def test_backends_agree_after_incremental_removals(make):
    """Post-removal states: fast-path graphs + inherited caches stay exact."""
    g = make().use_distance_backend("lazy")
    rng = np.random.default_rng(3)
    # Warm caches so inheritance actually has something to carry over.
    for s in range(0, g.n, 7):
        g.oracle.ball(s, 2)
    for s in range(0, g.n, 17):
        g.oracle.row(s)
    removed: list[int] = []
    current = g
    for _ in range(4):
        x = int(rng.integers(0, g.n))
        while x in removed:
            x = int(rng.integers(0, g.n))
        removed.append(x)
        current = current.without_nodes([x])  # single-node fast path
        # reference: rebuilt cold from the surviving edge list
        ref = Graph(g.n, [e for e in g.edges if not set(e) & set(removed)])
        truth = reference_rows(ref)
        assert current.edges == ref.edges
        lazy_rows = current.oracle.rows(range(g.n))
        assert np.array_equal(lazy_rows, truth)
        # balls from the (possibly inherited) cache
        for s in range(0, g.n, 7):
            nodes, dists = current.oracle.ball(s, 2)
            ref_nodes = np.flatnonzero(
                (truth[s] <= 2) & (truth[s] < UNREACHABLE)
            )
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(dists, truth[s][ref_nodes])
        # landmark backend rebuilt on the derived graph stays exact
        landmark = build_distance_oracle(current, "landmark")
        qs = rng.integers(0, g.n, 60).reshape(-1, 2)
        for u, v in qs.tolist():
            assert landmark.distance(u, v) == int(truth[u, v])


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_landmark_rows_and_balls_match_lazy(g):
    # row/ball machinery is inherited from the lazy backend; pair queries
    # come from labels — all three must agree on arbitrary graphs.
    lazy = build_distance_oracle(g, "lazy")
    landmark = build_distance_oracle(g, "landmark")
    for u in range(g.n):
        assert np.array_equal(landmark.row(u), lazy.row(u))
        for v in range(g.n):
            assert landmark.distance(u, v) == int(lazy.row(u)[v])


@given(connected_graphs(max_n=12), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_labels_exact_after_chained_removals(g, removals):
    current = g.use_distance_backend("landmark")
    alive = list(range(g.n))
    for _ in range(min(removals, g.n - 1)):
        x = alive.pop(len(alive) // 2)
        current = current.without_nodes([x])
    oracle = current.oracle
    assert oracle.backend == "landmark"
    reference = LazyDistanceOracle(Graph(current.n, current.edges))
    for u in range(current.n):
        ref_row = reference.row(u)
        for v in range(current.n):
            assert oracle.distance(u, v) == int(ref_row[v])


class TestVectorizedConstruction:
    """The CSR level-synchronous builder vs the per-node reference."""

    @pytest.mark.parametrize("make", SCENARIOS)
    def test_labels_identical_to_reference(self, make):
        g = make()
        indptr, indices = g.csr_adjacency
        v_ranks, v_dists, v_order = build_pruned_labels(indptr, indices, g.n)
        r_ranks, r_dists, r_order = _build_pruned_labels_reference(
            indptr, indices, g.n
        )
        assert np.array_equal(v_order, r_order)
        for u in range(g.n):
            assert np.array_equal(v_ranks[u], r_ranks[u]), u
            assert np.array_equal(v_dists[u], r_dists[u]), u
            assert v_dists[u].dtype == r_dists[u].dtype

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_labels_identical_on_random_graphs(self, g):
        indptr, indices = g.csr_adjacency
        v = build_pruned_labels(indptr, indices, g.n)
        r = _build_pruned_labels_reference(indptr, indices, g.n)
        for u in range(g.n):
            assert np.array_equal(v[0][u], r[0][u])
            assert np.array_equal(v[1][u], r[1][u])

    def test_disconnected_and_isolated_nodes(self):
        g = Graph(6, [(0, 1), (1, 2), (4, 5)])  # node 3 isolated
        indptr, indices = g.csr_adjacency
        v = build_pruned_labels(indptr, indices, g.n)
        r = _build_pruned_labels_reference(indptr, indices, g.n)
        for u in range(g.n):
            assert np.array_equal(v[0][u], r[0][u])
            assert np.array_equal(v[1][u], r[1][u])
        # the isolated node still labels itself (exact self-distance 0)
        oracle = LandmarkDistanceOracle(g)
        assert oracle.distance(3, 3) == 0
        assert oracle.distance(3, 0) == UNREACHABLE

    def test_empty_graph(self):
        g = Graph(0)
        indptr, indices = g.csr_adjacency
        ranks, dists, order = build_pruned_labels(indptr, indices, 0)
        assert ranks == [] and dists == [] and order.size == 0


class TestDistDtypeContract:
    """PR 6 regression: the repro-lint R002 findings, frozen as behavior.

    ``build_pruned_labels`` used to keep the persistent label-distance
    arrays in int64; they are DIST_DTYPE now, and so is the batched
    build's hub table.  That is only sound because the prune check's
    "no certificate" sentinel is half of ``UNREACHABLE``: a sum of two
    sentinels still fits in int32, where ``UNREACHABLE + d`` would wrap
    negative and defeat the pruning comparison.  A disconnected graph
    keeps the sentinel resident for every cross-component candidate, so
    it is exactly the family where a wrapping sum would produce silently
    wrong labels.
    """

    def test_label_distances_are_dist_dtype(self):
        g = toroidal_grid(6, 6)
        indptr, indices = g.csr_adjacency
        _, dists, _ = build_pruned_labels(indptr, indices, g.n)
        assert dists and all(d.dtype == DIST_DTYPE for d in dists)

    def test_sentinel_arithmetic_survives_disconnection(self):
        # Three components of very different shapes: a long path, a
        # clique, and a single edge.  Every prune check rooted in one
        # component sees the sentinel for hubs of the others.
        edges = [(i, i + 1) for i in range(9)]
        edges += [
            (10 + a, 10 + b) for a in range(5) for b in range(a + 1, 5)
        ]
        edges += [(15, 16)]
        g = Graph(17, edges)
        indptr, indices = g.csr_adjacency
        v_ranks, v_dists, v_order = build_pruned_labels(indptr, indices, g.n)
        r_ranks, r_dists, r_order = _build_pruned_labels_reference(
            indptr, indices, g.n
        )
        assert np.array_equal(v_order, r_order)
        for u in range(g.n):
            assert np.array_equal(v_ranks[u], r_ranks[u]), u
            assert np.array_equal(v_dists[u], r_dists[u]), u
            # the sentinel itself never leaks into a stored label
            assert (v_dists[u] < UNREACHABLE).all()
            assert (v_dists[u] >= 0).all()
        oracle = LandmarkDistanceOracle(g)
        assert oracle.distance(0, 12) == UNREACHABLE
        assert oracle.distance(16, 3) == UNREACHABLE
        assert oracle.distance(0, 9) == 9


class TestPrunedLabels:
    def test_labels_cover_all_pairs_exactly(self):
        g = ring_of_cliques(5, 4)
        indptr, indices = g.csr_adjacency
        ranks, dists, order = build_pruned_labels(indptr, indices, g.n)
        assert order.size == g.n
        # every node labels itself through some hub at distance 0
        for u in range(g.n):
            assert (dists[u] == 0).sum() == 1
            assert ranks[u].size >= 1
            # ranks are strictly increasing (sorted joins rely on this)
            assert (np.diff(ranks[u]) > 0).all()

    def test_degree_ranked_landmark_order(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        oracle = LandmarkDistanceOracle(g)
        oracle.distance(3, 4)  # trigger lazy label construction
        # hub 0 has degree 4: rank 0, and a small landmark set suffices
        assert oracle.landmarks(1) == (0,)
        stats = oracle.stats()
        assert stats.backend == "landmark"
        assert stats.label_entries > 0
        assert stats.pair_queries >= 1

    def test_labels_built_lazily(self):
        g = toroidal_grid(4, 4)
        oracle = LandmarkDistanceOracle(g)
        oracle.ball(0, 2)
        oracle.row(3)
        assert not oracle.labels_built  # ball/row queries never need labels
        assert oracle.distance(0, 5) >= 1
        assert oracle.labels_built

    def test_landmark_backend_resolution(self):
        assert resolve_backend("landmark") == "landmark"
        g = Graph(3, [(0, 1)])
        assert g.use_distance_backend("landmark").oracle.backend == "landmark"

    def test_label_sizes_stay_small_on_unit_disk(self):
        # The √n-landmark claim, operationally: average label size on a
        # unit-disk instance stays a small multiple of √n.
        g = unit_disk(150, 17)
        oracle = LandmarkDistanceOracle(g)
        oracle.distance(0, g.n - 1)
        avg = oracle.stats().label_entries / g.n
        assert avg <= 4.0 * np.sqrt(g.n)


def batch_graph(n: int, seed: int) -> Graph:
    """A graph whose components straddle ``BATCH_BITS``-root batches.

    Shuffled node IDs are split over 1-4 components (a random spanning
    tree plus sparse extra edges each) and up to four isolated nodes, so
    every batch mixes roots of several components; low degrees make the
    root order's degree ties common.
    """
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n).tolist()
    rest = ids[int(rng.integers(0, min(4, n) + 1)) :]
    parts = int(rng.integers(1, 5))
    cuts = sorted(rng.choice(np.arange(1, max(len(rest), 2)), parts - 1).tolist())
    edges: set[tuple[int, int]] = set()
    for lo, hi in zip([0] + cuts, cuts + [len(rest)]):
        part = rest[lo:hi]
        for i in range(1, len(part)):
            a, b = part[i], part[int(rng.integers(0, i))]
            edges.add((min(a, b), max(a, b)))
        for i, j in rng.integers(0, max(len(part), 1), (len(part) // 2, 2)).tolist():
            if i != j:
                a, b = part[i], part[j]
                edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


@st.composite
def batch_spanning_graphs(draw):
    """60-220-node :func:`batch_graph` instances: 1-4 root batches each."""
    return batch_graph(draw(st.integers(60, 220)), draw(st.integers(0, 2**32 - 1)))


#: Sizes at and around the batch boundaries (BATCH_BITS = 64).
BOUNDARY_SIZES = (1, 63, 64, 65, 128, 129)


def networkx_distances(g: Graph) -> np.ndarray:
    """Independent ground truth: networkx BFS, UNREACHABLE across components."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    truth = np.full((g.n, g.n), UNREACHABLE, dtype=DIST_DTYPE)
    for u, lengths in nx.all_pairs_shortest_path_length(nxg):
        for v, d in lengths.items():
            truth[u, v] = d
    return truth


def assert_labels_equal_reference(g: Graph) -> None:
    indptr, indices = g.csr_adjacency
    v_ranks, v_dists, v_order = build_pruned_labels(indptr, indices, g.n)
    r_ranks, r_dists, r_order = _build_pruned_labels_reference(
        indptr, indices, g.n
    )
    assert np.array_equal(v_order, r_order)
    assert v_order.dtype == r_order.dtype
    assert len(v_ranks) == len(r_ranks) == g.n
    assert len(v_dists) == len(r_dists) == g.n
    for u in range(g.n):
        assert np.array_equal(v_ranks[u], r_ranks[u]), u
        assert np.array_equal(v_dists[u], r_dists[u]), u
        assert v_ranks[u].dtype == r_ranks[u].dtype == np.int64
        assert v_dists[u].dtype == r_dists[u].dtype == DIST_DTYPE


class TestBatchBoundaries:
    """The batched build and the vectorized join across 64-root batches.

    Roots run ``BATCH_BITS`` at a time; these graphs span several batches
    with components, isolated nodes and degree ties interleaved across
    them — the cases where the in-batch cleanup decides a label.
    """

    def test_batch_width_is_batch_bits(self):
        assert BATCH_BITS == 64  # the pinned sizes below bracket it

    @given(batch_spanning_graphs())
    @settings(max_examples=25, deadline=None)
    def test_labels_identical_to_reference(self, g):
        assert_labels_equal_reference(g)

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_labels_identical_at_boundary_sizes(self, n):
        assert_labels_equal_reference(batch_graph(n, seed=n))

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_joins_match_networkx(self, n):
        g = batch_graph(n, seed=1000 + n)
        truth = networkx_distances(g)
        oracle = LandmarkDistanceOracle(g)
        nodes = list(range(g.n))
        assert np.array_equal(oracle.pairwise_distances(nodes), truth)
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, g.n, (300, 2))
        got = oracle.pair_distances([tuple(p) for p in pairs.tolist()])
        assert np.array_equal(got, truth[pairs[:, 0], pairs[:, 1]])
        assert got.dtype == DIST_DTYPE
        for s in rng.integers(0, g.n, 5).tolist():
            assert np.array_equal(oracle.distances(s, nodes), truth[s])
            assert oracle.distance(s, int(pairs[0, 1])) == truth[s, pairs[0, 1]]

    @given(batch_spanning_graphs())
    @settings(max_examples=10, deadline=None)
    def test_joins_match_networkx_on_random_graphs(self, g):
        truth = networkx_distances(g)
        oracle = LandmarkDistanceOracle(g)
        assert np.array_equal(oracle.pairwise_distances(range(g.n)), truth)

    def test_cross_component_pairs_are_unreachable(self):
        g = batch_graph(129, seed=5)
        truth = networkx_distances(g)
        apart = np.argwhere(truth == UNREACHABLE)
        assert apart.size  # isolated nodes / several components
        oracle = LandmarkDistanceOracle(g)
        got = oracle.pair_distances([tuple(p) for p in apart.tolist()])
        assert (got == UNREACHABLE).all()

    @pytest.mark.parametrize("n", (65, 129))
    def test_probe_counts_match_per_pair_twin(self, n):
        """Batched pair APIs count and touch rows like per-pair queries."""
        g = batch_graph(n, seed=77 + n)
        row_bytes = g.n * np.dtype(DIST_DTYPE).itemsize
        batched = LandmarkDistanceOracle(g, row_cache_bytes=6 * row_bytes)
        twin = LandmarkDistanceOracle(g, row_cache_bytes=6 * row_bytes)
        rng = np.random.default_rng(n)
        for s in rng.integers(0, g.n, 9).tolist():  # 9 rows, budget 6
            batched.row(s)
            twin.row(s)
        resident = [s for s, _ in batched._rows.items()]
        pairs = rng.integers(0, g.n, (400, 2))
        pairs[::7, 0] = rng.choice(resident, len(pairs[::7]))
        pairs[::11, 1] = pairs[::11, 0]  # self pairs count nothing
        got = batched.pair_distances([tuple(p) for p in pairs.tolist()])
        want = [twin.distance(u, v) for u, v in pairs.tolist()]
        assert got.tolist() == want
        nodes = resident[:3] + rng.integers(0, g.n, 20).tolist()
        grid = batched.pairwise_distances(nodes)
        for i, u in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                assert grid[i, j] == grid[j, i] == twin.distance(u, nodes[j])
        cold = next(s for s in range(g.n) if s not in resident)
        got = batched.distances(cold, nodes)
        assert got.tolist() == [
            twin.distance(cold, t) if t != cold else 0 for t in nodes
        ]
        a, b = batched.stats(), twin.stats()
        assert a.row_hits == b.row_hits > 0
        assert a.pair_queries == b.pair_queries > 0
        assert [s for s, _ in batched._rows.items()] == [
            s for s, _ in twin._rows.items()
        ]
        # a resident source answers a whole distances() call: one hit
        batched.distances(resident[-1], nodes)
        assert batched.stats().row_hits == a.row_hits + 1
        assert batched.stats().pair_queries == a.pair_queries

    def test_probe_stream_matches_per_pair_reference(self):
        """A seeded stream of row reads and pair batches under a row
        budget that evicts: a batch answers, counts and reorders the
        resident rows exactly as its pairs asked one call at a time."""
        g = batch_graph(129, seed=31)
        truth = networkx_distances(g)
        row_bytes = g.n * np.dtype(DIST_DTYPE).itemsize
        batched = LandmarkDistanceOracle(g, row_cache_bytes=5 * row_bytes)
        twin = LandmarkDistanceOracle(g, row_cache_bytes=5 * row_bytes)
        rng = np.random.default_rng(2026)
        for step in range(30):
            for s in rng.integers(0, g.n, int(rng.integers(1, 4))).tolist():
                batched.row(s)
                twin.row(s)
            resident = [s for s, _ in batched._rows.items()]
            pairs = rng.integers(0, g.n, (int(rng.integers(1, 80)), 2))
            hot = rng.random(len(pairs)) < 0.5
            pairs[hot, 0] = rng.choice(resident, int(hot.sum()))
            same = rng.random(len(pairs)) < 0.05
            pairs[same, 1] = pairs[same, 0]
            got = batched.pair_distances([tuple(p) for p in pairs.tolist()])
            want = [twin.distance(u, v) for u, v in pairs.tolist()]
            assert got.tolist() == want, step
            assert want == truth[pairs[:, 0], pairs[:, 1]].tolist(), step
            a, b = batched.stats(), twin.stats()
            assert (a.row_hits, a.pair_queries) == (b.row_hits, b.pair_queries)
            assert [s for s, _ in batched._rows.items()] == [
                s for s, _ in twin._rows.items()
            ], step
        assert len(twin._rows) == 5 and twin.stats().rows_computed > 20

    def test_sentinel_caps_graph_size(self):
        # Checked before anything is allocated for the n nodes.
        indptr = np.zeros(1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            build_pruned_labels(indptr, indices, _HUB_INF + 1)
        assert 2 * _HUB_INF <= np.iinfo(DIST_DTYPE).max

    def test_batching_work_is_counted_in_the_labels_span(self):
        g = batch_graph(129, seed=3)
        obs.set_enabled(True)
        obs.reset()
        obs.reset_tracer()
        try:
            oracle = LandmarkDistanceOracle(g)
            oracle.distance(0, 1)
            (labels,) = obs.take_finished()
        finally:
            obs.reset()
            obs.reset_tracer()
            obs.set_enabled(False)
        assert labels.name == "labels"
        tentative = labels.counters["labels.tentative"]
        dropped = labels.counters["labels.dropped_in_batch"]
        assert dropped > 0
        assert tentative - dropped == oracle.stats().label_entries
        # tracing off: the same build publishes nothing
        LandmarkDistanceOracle(g).distance(0, 1)
        assert len(obs.registry()) == 0


class TestByteAccounting:
    def test_peak_covers_label_bytes(self):
        g = toroidal_grid(8, 8)
        row_bytes = g.n * np.dtype(DIST_DTYPE).itemsize
        oracle = LandmarkDistanceOracle(g, row_cache_bytes=2 * row_bytes)
        oracle.distance(0, 27)
        stats = oracle.stats()
        label_bytes = stats.label_entries * (8 + np.dtype(DIST_DTYPE).itemsize)
        assert stats.cached_bytes == label_bytes > 0
        assert stats.peak_cached_bytes >= stats.cached_bytes
        for s in range(6):  # two-row budget: four evictions
            oracle.row(s)
        stats = oracle.stats()
        assert stats.cached_bytes == label_bytes + 2 * row_bytes
        assert stats.peak_cached_bytes >= stats.cached_bytes
