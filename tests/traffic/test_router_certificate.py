"""The head router's inheritance certificate is exact.

Every Dijkstra tree, head sequence and expanded walk that
``HeadRouter.inherit_from`` carries onto a changed backbone must equal
what a cold ``HeadRouter`` over that backbone computes.  That exactness
is why inheritance needs no extra mask of changed heads: a carried entry
cannot be told apart from a recomputed one, on a spliced backbone and on
a rebuilt one alike.  The chains below cover member, gateway and head
deaths (splices and reclusters) through ``carry_repair``, and random edge
deltas with re-clustering through ``carry_delta``.  Each router is warmed
with canonical and balanced batches, so tie-break and Yen sequences are
in the walk cache too.
"""

from collections import Counter

import numpy as np

from repro.cds.routing import HeadRouter
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.maintenance.repair import failure_role, repair
from repro.maintenance.step import carry_delta, carry_repair
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs

ROLES = ("member", "gateway", "head")


def _warm(router, dead=(), seed=0):
    n = router.result.clustering.graph.n
    alive = np.ones(n, dtype=bool)
    alive[sorted(dead)] = False
    wl = uniform_pairs(n, 200, seed=seed).restrict(alive)
    router.route_flows(wl, with_shortest=False)
    router.route_flows(wl, with_shortest=False, balance=True)


def _assert_carried_exact(router, stats):
    """Check a freshly carried router's caches against a cold router.

    Right after the carry the router's caches hold only carried entries.
    Returns the number of carried trees.
    """
    hr = router.router
    cold = HeadRouter(router.result)
    assert stats["trees"] == len(hr._trees)
    assert stats["head_seqs"] == len(hr._head_seqs)
    assert stats["head_walks"] == len(hr._walks)
    for h, tree in hr._trees.items():
        assert tree == cold.tree(h), h
    for (a, b), seq in hr._head_seqs.items():
        assert seq == cold.head_sequence(a, b), (a, b)
    for seq, walk in hr._walks.items():
        assert walk == cold.walk_for_seq(seq), seq
    return len(hr._trees)


def test_repair_chains_carry_only_exact_entries():
    roles: Counter = Counter()
    actions: Counter = Counter()
    rebuilt_trees = 0
    for seed in range(6):
        topo = random_topology(120, degree=7.0, seed=200 + seed)
        router = BatchRouter(
            build_backbone(khop_cluster(topo.graph, 2), "AC-LMST")
        )
        _warm(router, seed=seed)
        rng = np.random.default_rng(seed)
        dead: set[int] = set()
        for step in range(21):
            backbone = router.result
            want = ROLES[step % 3]
            pool = [
                u
                for u in range(backbone.clustering.graph.n)
                if u not in dead and failure_role(backbone, u) == want
            ]
            if not pool:
                continue
            victim = pool[int(rng.integers(len(pool)))]
            outcome = repair(backbone, victim)
            if outcome.partitioned:
                continue
            dead.add(victim)
            router, stats = carry_repair(router, outcome)
            carried = _assert_carried_exact(router, stats)
            roles[outcome.role] += 1
            actions[outcome.action] += 1
            if not outcome.spliced:
                rebuilt_trees += carried
            _warm(router, dead, seed=seed * 100 + step)
    assert set(roles) == set(ROLES)
    assert {"none", "gateway-reselect", "recluster"} <= set(actions)
    # Rebuilt backbones carry trees too: the certificate, not a mask of
    # changed heads, decides.
    assert rebuilt_trees > 0


def test_edge_delta_chains_carry_only_exact_entries():
    carried_total = 0
    for seed in range(4):
        g = random_topology(120, degree=7.0, seed=300 + seed).graph
        router = BatchRouter(build_backbone(khop_cluster(g, 2), "AC-LMST"))
        _warm(router, seed=seed)
        rng = np.random.default_rng(seed)
        for step in range(8):
            edges = g.edge_array
            removed = [
                tuple(int(x) for x in edges[i])
                for i in rng.choice(len(edges), 2, replace=False)
            ]
            added = []
            while len(added) < 2:
                u, v = sorted(int(x) for x in rng.choice(g.n, 2, replace=False))
                if not g.has_edge(u, v) and (u, v) not in added:
                    added.append((u, v))
            g2 = g.with_edge_delta(added, removed)
            if not g2.is_connected():
                continue
            touched = {x for e in added + removed for x in e}
            router, stats = carry_delta(router, khop_cluster(g2, 2), touched)
            carried_total += _assert_carried_exact(router, stats)
            g = g2
            _warm(router, seed=seed * 100 + step)
    assert carried_total > 0
