"""Differential test: random mixed mutation sequences vs independent references.

Node removals, node arrivals and edge deltas all reach the cache layers as
one edge delta, so one certificate per layer must survive any sequence of
them.  Each example builds a warm graph (rows, balls, pending partial rows,
canonical paths, a routed ``BatchRouter``) and applies a random sequence of
``without_nodes`` / ``with_nodes`` / ``with_edge_delta`` calls, and a
networkx graph takes the same steps.  After every step the graph and its
carried state are compared with references that share no code with them:

* the graph itself against the networkx graph: ``edges`` and
  ``edge_array``, every ``neighbors`` / ``degree`` and CSR row (sorted,
  symmetric, delimited by ``indptr``), ``has_edge`` on sampled edges and
  non-edges, ``is_connected`` and ``connected_components``;
* every resident distance row and ball, and every pending partial row
  (completed through re-expansion), against networkx BFS on it;
* on the landmark backend, label-join pair distances against the same BFS;
* every carried canonical path against ``canonical_path`` on a cold graph;
* an inherited ``BatchRouter``'s walks against a freshly built router's.
"""

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.errors import DisconnectedGraphError, ValidationError
from repro.maintenance.repair import _strip_nodes
from repro.net.graph import Graph
from repro.net.oracle import UNREACHABLE
from repro.net.paths import PathOracle, canonical_path
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import Workload

OPS = st.lists(
    st.tuples(
        st.sampled_from(["remove", "arrive", "delta"]), st.integers(0, 2**16)
    ),
    min_size=1,
    max_size=5,
)


def _edges(seed):
    topo = random_topology(30, degree=5.0, seed=seed)
    return topo.graph.n, topo.graph.edges


def _mutate(g, ref, dead, kind, rng):
    """One random mutation of ``g``, and the same step on the networkx
    graph ``ref`` (in place): ``(child, touched, dead)`` after it."""
    alive = [u for u in range(g.n) if u not in dead]
    if kind == "remove":
        size = min(len(alive) - 2, int(rng.integers(1, 3)))
        victims = sorted(int(x) for x in rng.choice(alive, size, replace=False))
        ref.remove_edges_from(list(ref.edges(victims)))
        return g.without_nodes(victims), victims, dead | set(victims)
    if kind == "arrive":
        count = int(rng.integers(1, 3))
        edges = []
        for i in range(count):
            pool = alive + list(range(g.n, g.n + i))
            deg = min(len(pool), int(rng.integers(0, 4)))
            targets = rng.choice(pool, deg, replace=False)
            edges += [(int(t), g.n + i) for t in targets]
        ref.add_nodes_from(range(g.n, g.n + count))
        ref.add_edges_from(edges)
        return g.with_nodes(count, edges), [], dead
    edges = sorted(tuple(sorted(e)) for e in ref.edges())
    count = min(len(edges), int(rng.integers(0, 4)))
    picks = rng.choice(len(edges), count, replace=False)
    removed = [edges[int(i)] for i in picks]
    added = set()
    for _ in range(int(rng.integers(0, 4))):
        u, v = sorted(int(x) for x in rng.choice(alive, 2, replace=False))
        if not ref.has_edge(u, v):
            added.add((u, v))
    touched = sorted({x for e in [*added, *removed] for x in e})
    ref.remove_edges_from(removed)
    ref.add_edges_from(added)
    return g.with_edge_delta(sorted(added), removed), touched, dead


def _check_graph(g, ref, rng):
    """``g``'s arrays and views against the networkx graph ``ref``."""
    want = sorted(tuple(sorted(e)) for e in ref.edges())
    assert g.n == ref.number_of_nodes()
    assert list(g.edges) == want
    assert g.edge_array.tolist() == [list(e) for e in want]
    indptr, indices = g.csr_adjacency
    assert indptr.shape == (g.n + 1,)
    assert indptr[0] == 0 and indptr[-1] == indices.size == 2 * len(want)
    for u in range(g.n):
        nbrs = sorted(ref.neighbors(u))
        # Row u is exactly u's sorted networkx neighbors; as ref is
        # undirected, every arc's reverse is then in the other row.
        assert indices[indptr[u] : indptr[u + 1]].tolist() == nbrs, ("row", u)
        assert g.neighbors(u) == tuple(nbrs)
        assert g.degree(u) == len(nbrs)
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    arcs = set(zip(rows.tolist(), indices.tolist()))
    assert all((v, u) in arcs for u, v in arcs)
    picks = rng.choice(len(want), min(8, len(want)), replace=False)
    sample = [want[int(i)] for i in picks]
    sample += [tuple(int(x) for x in rng.integers(0, g.n, 2)) for _ in range(12)]
    for u, v in sample:
        assert g.has_edge(u, v) == g.has_edge(v, u) == ref.has_edge(u, v), (u, v)
    assert g.is_connected() == nx.is_connected(ref)
    comps = sorted(
        (tuple(sorted(c)) for c in nx.connected_components(ref)),
        key=lambda c: (-len(c), c),
    )
    assert g.connected_components() == comps


def _bfs_row(nxg, src, n):
    row = np.full(n, UNREACHABLE, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(nxg, src).items():
        row[v] = d
    return row


def _check_caches(g, nxg, paths, rng):
    o = g.oracle
    for src, row in list(o._rows.items()):
        assert np.array_equal(row, _bfs_row(nxg, src, g.n)), ("row", src)
    for (src, r), (nodes, dists) in list(o._balls.items()):
        want = nx.single_source_shortest_path_length(nxg, src, cutoff=r)
        members = sorted(want)
        assert nodes.tolist() == members, ("ball", src, r)
        assert dists.tolist() == [want[v] for v in members], ("ball", src, r)
    for src in list(o._partial_rows):
        want = _bfs_row(nxg, src, g.n)
        assert np.array_equal(o.row(src), want), ("partial", src)
    if o.backend == "landmark":
        for u, v in rng.integers(0, g.n, (6, 2)):
            want = _bfs_row(nxg, int(u), g.n)[int(v)]
            assert o.distance(int(u), int(v)) == want, ("pair", u, v)
    cold = Graph(g.n, nxg.edges())
    for (a, b), path in list(paths._cache.items()):
        assert path == canonical_path(cold, a, b), ("path", a, b)


def _warm(g, paths, rng):
    o = g.oracle
    sources = [int(s) for s in rng.choice(g.n, 6, replace=False)]
    for s in sources[:3]:
        o.row(s)
    o.rows(sources[3:])
    for s in rng.choice(g.n, 4, replace=False):
        o.ball(int(s), int(rng.integers(0, 4)))
    for u, v in rng.integers(0, g.n, (10, 2)):
        if u != v and o.distance(int(u), int(v)) < UNREACHABLE:
            paths.path(int(u), int(v))


def _backbone(g, dead):
    clustering = khop_cluster(g, 2, require_connected=False)
    try:
        return build_backbone(_strip_nodes(clustering, g, dead), "AC-LMST")
    except (ValidationError, DisconnectedGraphError):
        return None


def _workload(g, dead, rng, flows=40):
    label = np.full(g.n, -1)
    for i, comp in enumerate(g.connected_components()):
        label[list(comp)] = i
    label[list(dead)] = -1
    pairs = np.asarray(
        [
            (u, v)
            for u, v in rng.integers(0, g.n, (4 * flows, 2))
            if u != v and label[u] >= 0 and label[u] == label[v]
        ][:flows],
        dtype=np.int64,
    ).reshape(-1, 2)
    ones = np.ones(len(pairs), dtype=np.int64)
    return Workload("differential", g.n, pairs[:, 0], pairs[:, 1], ones)


@settings(max_examples=25, deadline=None)
@given(
    backend=st.sampled_from(["lazy", "landmark"]),
    seed=st.integers(0, 2**16),
    ops=OPS,
)
@example(backend="lazy", seed=0, ops=[("remove", 0), ("arrive", 1), ("delta", 2)])
@example(backend="landmark", seed=1, ops=[("arrive", 3), ("delta", 4), ("remove", 5)])
# Shrunk sequences that catch a path certificate which ignores path nodes
# gaining edges (rule (b)): the new neighbor wins the min-ID walk.
@example(
    backend="lazy",
    seed=0,
    ops=[("remove", 0), ("remove", 0), ("remove", 0), ("delta", 2)],
)
@example(
    backend="lazy",
    seed=0,
    ops=[("remove", 0), ("remove", 1), ("arrive", 0), ("delta", 807)],
)
def test_mixed_mutation_sequences_match_references(backend, seed, ops):
    rng = np.random.default_rng(seed)
    n, edges = _edges(seed)
    g = Graph(n, edges).use_distance_backend(backend)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    # The structural checks sample from their own stream, so the warm-up
    # choices below (and the shrunk examples above) see the same draws.
    check_rng = np.random.default_rng([seed, 1])
    _check_graph(g, ref, check_rng)
    dead: set[int] = set()
    paths = PathOracle(g)
    _warm(g, paths, rng)
    backbone = _backbone(g, dead)
    router = None
    if backbone is not None:
        router = BatchRouter(backbone)
        router.route_flows(_workload(g, dead, rng), with_shortest=False)
    for kind, op_seed in ops:
        op_rng = np.random.default_rng(op_seed)
        g2, touched, dead = _mutate(g, ref, dead, kind, op_rng)
        _check_graph(g2, ref, check_rng)
        paths2 = PathOracle(g2)
        if kind == "remove" and len(touched) == 1:
            paths2.inherit_from(paths, touched[0])
        elif kind == "arrive":
            paths2.inherit_node_add(paths)
        else:
            paths2.inherit_edge_delta(paths, touched)
        _check_caches(g2, ref, paths2, rng)
        backbone2 = _backbone(g2, dead)
        router2 = None
        if backbone2 is not None:
            router2 = BatchRouter(backbone2)
            wl = _workload(g2, dead, rng)
            if router is not None:
                router2.inherit_edge_delta(router, touched)
                got = router2.route_flows(wl, with_shortest=False)
                fresh = BatchRouter(backbone2).route_flows(
                    wl, with_shortest=False
                )
                assert got.walks == fresh.walks, (kind, op_seed)
            else:
                router2.route_flows(wl, with_shortest=False)
        g, paths, router = g2, paths2, router2
        _warm(g, paths, rng)

