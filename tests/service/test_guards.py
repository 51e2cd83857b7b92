"""The service's invariant guards, checked directly.

One seeded defect per failure mode (each must trip its guard with its
message prefix), healthy negatives (a multi-component graph, dead
nodes), and a differential against the guards as they were before the
array rewrite — pure-Python loops, copied below as the reference — on
every state of a seeded service run and on corrupted copies of those
states.
"""

import dataclasses

import numpy as np
import pytest

from repro.cds.verify import check_gateways_are_members
from repro.core.clustering import group_by_assignment, khop_cluster
from repro.core.pipeline import build_backbone
from repro.core.virtual_graph import VirtualGraph, VirtualLink
from repro.errors import ValidationError
from repro.net.graph import Graph
from repro.net.topology import random_topology
from repro.service.engine import ServiceConfig, ServiceEngine, _initial_topology
from repro.service.events import ServiceEvent, seeded_schedule
from repro.service.guards import check_csr_symmetry, run_guards
from repro.types import normalize_edge

K = 2


# --------------------------------------------------------------------- #
# reference: the pre-array guards
# --------------------------------------------------------------------- #


def ref_csr(graph):
    indptr, indices = graph.csr_adjacency
    arcs = set()
    for u in range(graph.n):
        for v in indices[indptr[u] : indptr[u + 1]].tolist():
            arcs.add((u, v))
    for u, v in arcs:
        if (v, u) not in arcs:
            return f"CSR adjacency asymmetric: arc ({u}, {v}) has no reverse"
    realized = {normalize_edge(u, v) for u, v in arcs}
    if realized != set(graph.edges):
        missing = sorted(set(graph.edges) - realized)[:3]
        extra = sorted(realized - set(graph.edges))[:3]
        return f"CSR edge set diverges: missing={missing} extra={extra}"
    return None


def ref_assignment_valid(clustering, graph2, gone):
    k = clustering.k
    oracle = graph2.oracle
    head_arr = np.asarray(clustering.head_of, dtype=np.int64)
    gone_mask = np.zeros(graph2.n, dtype=bool)
    if gone:
        gone_mask[list(gone)] = True
    survivors = np.flatnonzero(~gone_mask)
    their_heads = head_arr[survivors]
    if gone_mask[their_heads].any():
        return False
    order, uniq, bounds = group_by_assignment(their_heads)
    sorted_members = survivors[order]
    for i, h in enumerate(uniq.tolist()):
        members = sorted_members[bounds[i] : bounds[i + 1]]
        nodes, _ = oracle.ball(h, k)
        pos = np.searchsorted(nodes, members)
        if (pos >= nodes.size).any():
            return False
        if not (nodes[pos] == members).all():
            return False
    return True


def ref_excluded(clustering):
    heads = set(clustering.heads)
    return {
        u
        for u in clustering.graph.nodes()
        if clustering.head_of[u] == u and u not in heads
    }


def ref_links_alive(result):
    g = result.clustering.graph
    for a, b in sorted(result.selected_links):
        link = result.virtual_graph.link(a, b)
        for x, y in zip(link.path, link.path[1:]):
            if not g.has_edge(x, y):
                raise ValidationError(
                    f"virtual link {a}-{b} uses non-edge ({x},{y})"
                )
        missing = set(link.interior) - result.gateways
        if missing:
            raise ValidationError(
                f"link {a}-{b} interior nodes {sorted(missing)} are not "
                "gateways"
            )


def ref_verify(result, excluded):
    g = result.clustering.graph
    check_gateways_are_members(result)
    ref_links_alive(result)
    cds = set(result.cds)
    for comp in g.connected_components():
        sub = cds & set(comp)
        if sub and not g.is_connected_subset(sub):
            raise ValidationError(
                "repaired CDS is not connected within its component"
            )
    k = result.clustering.k
    covered = set(g.nodes_within(result.heads, k))
    for u in g.nodes():
        if u in excluded:
            continue
        if u not in covered:
            raise ValidationError(f"survivor {u} lost k-hop domination")


def ref_guards(graph, clustering, backbone, dead):
    out = []
    msg = ref_csr(graph)
    if msg is not None:
        out.append(("csr", msg))
    if not ref_assignment_valid(clustering, graph, set(dead)):
        out.append(
            (
                "cover",
                f"cover violated: an alive node is more than "
                f"k={clustering.k} hops from its assigned head",
            )
        )
    if backbone is not None:
        try:
            ref_verify(backbone, ref_excluded(backbone.clustering) | dead)
        except ValidationError as exc:
            out.append(("backbone", f"backbone battery failed: {exc}"))
    return out


def guards(graph, clustering, backbone, dead=frozenset()):
    found = run_guards(graph, clustering, backbone, set(dead), seq=0, kind="test")
    return [(inc.guard, inc.message) for inc in found]


# --------------------------------------------------------------------- #
# fixtures and corruption helpers
# --------------------------------------------------------------------- #


def _backbone(n=60, seed=3, algorithm="NC-Mesh"):
    g = random_topology(n, degree=8.0, seed=seed).graph
    g.use_distance_backend("lazy")
    return build_backbone(khop_cluster(g, K), algorithm)


@pytest.fixture(scope="module")
def healthy():
    bb = _backbone()
    assert guards(bb.clustering.graph, bb.clustering, bb) == []
    return bb


def _with_csr(graph, indptr, indices):
    """A copy of ``graph`` (same edge array) whose CSR arrays are replaced."""
    g = Graph(graph.n, graph.edge_array)
    g._indptr, g._indices = indptr, indices
    return g


def _with_rows(graph, rows):
    """A copy of ``graph`` whose CSR arrays are built from ``rows``."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.asarray([v for r in rows for v in r], dtype=np.int64)
    return _with_csr(graph, indptr, indices)


def _rows(graph):
    return [list(graph.neighbors(u)) for u in graph.nodes()]


def _malformed_indptr(graph, how):
    """A copy of ``graph`` whose CSR ``indptr`` no longer delimits its arcs."""
    indptr, indices = graph.csr_adjacency
    indptr = indptr.copy()
    if how == "short":
        indptr = indptr[:-1]
    elif how == "negative-degree":
        assert indptr[6] > indptr[5]
        indptr[[5, 6]] = indptr[[6, 5]]
    else:  # "tail": the last offset stops short of the arc array
        indptr[-1] -= 1
    return _with_csr(graph, indptr, indices)


def _swap_graph(backbone, graph):
    clustering = dataclasses.replace(backbone.clustering, graph=graph)
    return dataclasses.replace(backbone, clustering=clustering)


def _replace_path(backbone, key, path):
    vg = backbone.virtual_graph
    links = [
        VirtualLink(*key, tuple(path)) if (link.u, link.v) == key else link
        for link in vg.links()
    ]
    return dataclasses.replace(
        backbone, virtual_graph=VirtualGraph(vg.heads, links)
    )


def _far_head(clustering, u):
    """The smallest head more than k hops from ``u`` (None if none)."""
    g = clustering.graph
    near = set(g.closed_khop_neighbors(u, clustering.k))
    return next((h for h in clustering.heads if h not in near), None)


def _reassign(backbone, u, h):
    head_of = list(backbone.clustering.head_of)
    head_of[u] = h
    clustering = dataclasses.replace(backbone.clustering, head_of=tuple(head_of))
    return dataclasses.replace(backbone, clustering=clustering)


def _only(found, guard, prefix):
    kinds = [kind for kind, _ in found]
    assert guard in kinds, found
    message = found[kinds.index(guard)][1]
    assert message.startswith(prefix), message
    return message


# --------------------------------------------------------------------- #
# one seeded defect per failure mode
# --------------------------------------------------------------------- #


class TestCsrGuard:
    def test_arc_without_reverse(self, healthy):
        g = healthy.clustering.graph
        u, v = g.edges[0]
        rows = _rows(g)
        rows[u].remove(v)
        bad = _with_rows(g, rows)
        message = check_csr_symmetry(bad)
        assert message == f"CSR adjacency asymmetric: arc ({v}, {u}) has no reverse"
        bb = _swap_graph(healthy, bad)
        _only(guards(bad, bb.clustering, bb), "csr", "CSR adjacency asymmetric")

    def test_edge_set_divergence(self, healthy):
        g = healthy.clustering.graph
        u, v = g.edges[5]
        rows = _rows(g)
        rows[u].remove(v)
        rows[v].remove(u)
        bad = _with_rows(g, rows)
        assert check_csr_symmetry(bad) == (
            f"CSR edge set diverges: missing={[(u, v)]} extra=[]"
        )
        bb = _swap_graph(healthy, bad)
        _only(guards(bad, bb.clustering, bb), "csr", "CSR edge set diverges")

    def test_phantom_arc_pair_diverges(self, healthy):
        g = healthy.clustering.graph
        u = 0
        v = next(x for x in range(1, g.n) if not g.has_edge(u, x))
        rows = _rows(g)
        rows[u] = sorted(rows[u] + [v])
        rows[v] = sorted(rows[v] + [u])
        message = check_csr_symmetry(_with_rows(g, rows))
        assert message == f"CSR edge set diverges: missing=[] extra={[(u, v)]}"

    def test_out_of_range_index(self, healthy):
        g = healthy.clustering.graph
        rows = _rows(g)
        rows[3][-1] = g.n
        message = check_csr_symmetry(_with_rows(g, rows))
        assert message.startswith("CSR adjacency asymmetric")
        assert f"arc (3, {g.n})" in message and "out of range" in message

    @pytest.mark.parametrize("how", ["short", "negative-degree", "tail"])
    def test_malformed_indptr(self, healthy, how):
        g = healthy.clustering.graph
        bad = _malformed_indptr(g, how)
        indptr, indices = bad.csr_adjacency
        assert check_csr_symmetry(bad) == (
            f"CSR edge set diverges: indptr of shape {indptr.shape} does not "
            f"delimit {indices.size} arcs over n={g.n} nodes"
        )

    @pytest.mark.parametrize("how", ["out-of-range", "short", "negative-degree"])
    def test_corrupt_csr_is_an_incident_not_an_exception(self, healthy, how):
        g = healthy.clustering.graph
        if how == "out-of-range":
            rows = _rows(g)
            rows[3][-1] = g.n
            bad = _with_rows(g, rows)
        else:
            bad = _malformed_indptr(g, how)
        bb = _swap_graph(healthy, bad)
        found = guards(bad, bb.clustering, bb)
        prefix = (
            "CSR adjacency asymmetric" if how == "out-of-range"
            else "CSR edge set diverges"
        )
        _only(found, "csr", prefix)
        assert len(found) == 1  # the guards that read the CSR stand down

    def test_negative_index(self, healthy):
        g = healthy.clustering.graph
        rows = _rows(g)
        rows[4][0] = -1
        assert check_csr_symmetry(_with_rows(g, rows)).startswith(
            "CSR adjacency asymmetric"
        )

    def test_unsorted_rows_and_paired_duplicates_still_round_trip(self, healthy):
        # Set semantics, as before: row order and an arc duplicated on
        # both sides do not change the edge set the CSR realizes, nor
        # does the order of the edge array.
        g = healthy.clustering.graph
        rows = [list(reversed(r)) for r in _rows(g)]
        u, v = g.edges[2]
        rows[u].append(v)
        rows[v].append(u)
        bad = _with_rows(g, rows)
        assert ref_csr(bad) is None
        assert check_csr_symmetry(bad) is None
        shuffled = Graph(g.n, g.edge_array)
        shuffled._edge_array = g.edge_array[::-1]
        assert check_csr_symmetry(shuffled) is None

    def test_one_sided_duplicate_arc(self, healthy):
        # Set semantics missed a duplicated arc whose reverse appears once;
        # the sorted-key comparison counts multiplicities.
        g = healthy.clustering.graph
        u, v = g.edges[2]
        rows = _rows(g)
        rows[u] = sorted(rows[u] + [v])
        bad = _with_rows(g, rows)
        assert ref_csr(bad) is None
        assert check_csr_symmetry(bad) == (
            f"CSR adjacency asymmetric: arc ({u}, {v}) has no reverse"
        )


class TestCoverGuard:
    def test_member_reassigned_beyond_k(self, healthy):
        cl = healthy.clustering
        u = next(
            x for x in cl.graph.nodes()
            if cl.head_of[x] != x and _far_head(cl, x) is not None
        )
        bb = _reassign(healthy, u, _far_head(cl, u))
        found = guards(bb.clustering.graph, bb.clustering, bb)
        assert [kind for kind, _ in found] == ["cover"]
        _only(found, "cover", "cover violated")


class TestBackboneGuard:
    def test_head_marked_as_gateway(self, healthy):
        bb = dataclasses.replace(
            healthy, gateways=healthy.gateways | {healthy.heads[0]}
        )
        message = _only(
            guards(bb.clustering.graph, bb.clustering, bb),
            "backbone",
            "backbone battery failed",
        )
        assert "marked as gateways" in message

    def test_link_step_not_an_edge(self, healthy):
        g = healthy.clustering.graph
        a, b = min(
            key for key in healthy.selected_links
            if healthy.virtual_graph.link(*key).weight >= 2
        )
        path = list(healthy.virtual_graph.link(a, b).path)
        x = next(
            w for w in sorted(healthy.gateways)
            if w not in path and not g.has_edge(a, w)
        )
        path[1] = x
        bb = _replace_path(healthy, (a, b), path)
        message = _only(
            guards(g, bb.clustering, bb), "backbone", "backbone battery failed"
        )
        assert f"virtual link {a}-{b} uses non-edge ({a},{x})" in message

    def test_link_interior_not_a_gateway(self, healthy):
        first = min(healthy.selected_links)
        link = healthy.virtual_graph.link(*first)
        assert link.interior
        dropped = link.interior[0]
        bb = dataclasses.replace(healthy, gateways=healthy.gateways - {dropped})
        message = _only(
            guards(bb.clustering.graph, bb.clustering, bb),
            "backbone",
            "backbone battery failed",
        )
        assert f"interior nodes [{dropped}] are not gateways" in message

    def test_cds_split_inside_one_component(self, healthy):
        bb = dataclasses.replace(
            healthy, gateways=frozenset(), selected_links=frozenset()
        )
        message = _only(
            guards(bb.clustering.graph, bb.clustering, bb),
            "backbone",
            "backbone battery failed",
        )
        assert "not connected within its component" in message

    def test_node_lost_domination(self, healthy):
        # Drop a head from the head set, keeping its members assigned to
        # it: the dropped head turns into an excluded phantom, and a
        # member beyond k of every other head is no longer dominated.
        cl = healthy.clustering
        for h in cl.heads:
            others = [x for x in cl.heads if x != h]
            covered = set(cl.graph.nodes_within(others, K)) | {h}
            orphans = [u for u in cl.graph.nodes() if u not in covered]
            if orphans:
                break
        clustering = dataclasses.replace(cl, heads=tuple(others))
        bb = dataclasses.replace(healthy, clustering=clustering)
        message = _only(
            guards(cl.graph, clustering, bb), "backbone", "backbone battery failed"
        )
        assert f"survivor {orphans[0]} lost k-hop domination" in message


# --------------------------------------------------------------------- #
# healthy states that must pass
# --------------------------------------------------------------------- #


class TestNoFalsePositives:
    def test_two_components_each_with_a_connected_cds_piece(self):
        left = _backbone(n=40, seed=5).clustering.graph
        n = left.n
        g = Graph(2 * n, list(left.edges) + [(u + n, v + n) for u, v in left.edges])
        g.use_distance_backend("lazy")
        assert len(g.connected_components()) == 2
        bb = build_backbone(khop_cluster(g, K, require_connected=False), "NC-Mesh")
        pieces = [set(c) & bb.cds for c in g.connected_components()]
        assert all(p and g.is_connected_subset(p) for p in pieces)
        assert not g.is_connected_subset(bb.cds)
        assert guards(g, bb.clustering, bb) == []

    def test_dead_nodes_never_trip(self):
        cfg = ServiceConfig(n=60, seed=5, checkpoint_every=0)
        engine = ServiceEngine(cfg)
        victims = [
            u for u in range(engine.graph.n) if u not in engine.clustering.heads
        ][:4]
        for x in victims:
            engine.apply(ServiceEvent(seq=0, kind="leave", node=x))
        assert engine.dead == set(victims)
        state = (engine.graph, engine.clustering, engine.backbone)
        assert guards(*state, engine.dead) == []
        # A dead node's stale assignment — even to a head far away — is
        # ignored by every guard.
        d = victims[0]
        h = _far_head(engine.clustering, d) or engine.clustering.heads[0]
        bb = _reassign(engine.backbone, d, h)
        assert guards(engine.graph, bb.clustering, bb, engine.dead) == []

    def test_excluded_phantoms_never_trip(self, healthy):
        # A phantom (self-assigned, not a head, isolated) is excluded from
        # domination even with no dead set passed in.
        g = healthy.clustering.graph
        x = next(u for u in g.nodes() if u not in healthy.cds)
        g2 = g.without_nodes([x])
        head_of = list(healthy.clustering.head_of)
        head_of[x] = x
        clustering = dataclasses.replace(
            healthy.clustering, graph=g2, head_of=tuple(head_of)
        )
        bb = dataclasses.replace(healthy, clustering=clustering)
        assert guards(g2, clustering, bb) == []


# --------------------------------------------------------------------- #
# differential against the pre-array guards
# --------------------------------------------------------------------- #


def _corruptions(graph, clustering, backbone, dead):
    """Deterministic corrupted copies of one live state."""
    alive = [u for u in graph.nodes() if u not in dead]
    heads = set(clustering.heads)
    out = {}
    member = next(
        (u for u in alive if u not in heads and _far_head(clustering, u) is not None),
        None,
    )
    if member is not None:
        bb = _reassign(backbone, member, _far_head(clustering, member))
        out["far-member"] = bb
    out["head-gateway"] = dataclasses.replace(
        backbone, gateways=backbone.gateways | {clustering.heads[0]}
    )
    if backbone.gateways:
        out["drop-gateway"] = dataclasses.replace(
            backbone, gateways=backbone.gateways - {min(backbone.gateways)}
        )
    out["split-cds"] = dataclasses.replace(
        backbone, gateways=frozenset(), selected_links=frozenset()
    )
    long = sorted(
        key for key in backbone.selected_links
        if backbone.virtual_graph.link(*key).weight >= 2
    )
    if long:
        a, b = long[0]
        path = list(backbone.virtual_graph.link(a, b).path)
        x = next((w for w in alive if not graph.has_edge(a, w) and w != a), None)
        if x is not None:
            path[1] = x
            out["bad-step"] = _replace_path(backbone, (a, b), path)
    if len(clustering.heads) > 1:
        out["drop-head"] = dataclasses.replace(
            backbone,
            clustering=dataclasses.replace(clustering, heads=clustering.heads[1:]),
        )
    for d in sorted(dead)[:1]:
        out["dead-reassigned"] = _reassign(backbone, d, clustering.heads[0])
    return out


def _csr_corruptions(graph):
    rows = _rows(graph)
    out = {}
    u, v = graph.edges[len(graph.edges) // 2]
    one = [list(r) for r in rows]
    one[u].remove(v)
    out["drop-arc"] = one
    both = [list(r) for r in one]
    both[v].remove(u)
    out["drop-edge"] = both
    w = next(x for x in range(1, graph.n) if not graph.has_edge(0, x))
    extra = [list(r) for r in rows]
    extra[0] = sorted(extra[0] + [w])
    extra[w] = sorted(extra[w] + [0])
    out["phantom-edge"] = extra
    stray = [list(r) for r in rows]
    stray[u][0] = graph.n
    out["out-of-range"] = stray
    return out


def _prefix(message):
    return None if message is None else message.split(":")[0]


@pytest.fixture(scope="module")
def service_states():
    """Every state of a seeded n=80 run that covers all event kinds."""
    cfg = ServiceConfig(n=80, seed=14, base_loss=0.05, checkpoint_every=0)
    schedule = seeded_schedule(
        _initial_topology(cfg), events=150, seed=cfg.seed, flows_per_batch=10
    )
    assert {ev.kind for ev in schedule} == {
        "join", "leave", "move", "link_down", "link_up", "degrade", "flow",
    }
    engine = ServiceEngine(cfg)
    states = []
    for ev in schedule:
        engine.apply(ev)
        states.append(
            (engine.graph, engine.clustering, engine.backbone, set(engine.dead))
        )
    # The run partitions (degraded repairs) and grows islands, so the
    # per-component connectivity rule is exercised, not just global.
    assert engine.counts["repair.degraded"] > 0
    return states


class TestDifferential:
    def test_every_live_state_agrees(self, service_states):
        for graph, clustering, backbone, dead in service_states:
            new = guards(graph, clustering, backbone, dead)
            assert new == ref_guards(graph, clustering, backbone, dead)
            assert new == []

    def test_corrupted_states_agree(self, service_states):
        tripped = set()
        for graph, clustering, backbone, dead in service_states[::3]:
            for name, bb in _corruptions(graph, clustering, backbone, dead).items():
                new = guards(graph, bb.clustering, bb, dead)
                ref = ref_guards(graph, bb.clustering, bb, dead)
                assert new == ref, name
                if new:
                    tripped.add(name)
        assert tripped >= {
            "far-member", "head-gateway", "drop-gateway", "split-cds",
            "bad-step", "drop-head",
        }
        assert "dead-reassigned" not in tripped

    def test_corrupted_csr_agrees(self, service_states):
        for graph, _, _, _ in service_states[::10]:
            for name, rows in _csr_corruptions(graph).items():
                bad = _with_rows(graph, rows)
                new, ref = check_csr_symmetry(bad), ref_csr(bad)
                assert new is not None, name
                assert _prefix(new) == _prefix(ref), name
                if name in ("drop-edge", "phantom-edge"):
                    assert new == ref, name
