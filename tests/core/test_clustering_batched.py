"""Batched-vs-scalar clustering engine equivalence.

The batched engine (CSR key-min propagation + multi-source join BFS) must
produce ``head_of`` *identical* to the per-node scalar reference on every
priority × membership × generator combination the repo exercises — the
module-level round-equivalence argument in :mod:`repro.core.clustering`,
checked empirically here, including on the incrementally derived
(``without_nodes``) graphs churn produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import khop_cluster
from repro.core.priorities import (
    ExplicitPriority,
    RandomTimer,
    ResidualEnergy,
)
from repro.core.validate import validate_clustering
from repro.errors import InvalidParameterError
from repro.net.generators import ring_of_cliques, toroidal_grid
from repro.net.graph import Graph
from repro.net.topology import random_topology

from ..conftest import connected_graphs, ks

#: The three scenario families the satellite task names.
SCENARIOS = [
    pytest.param(lambda: random_topology(80, degree=7.0, seed=11).graph, id="unit-disk-80"),
    pytest.param(lambda: random_topology(150, degree=9.0, seed=13).graph, id="unit-disk-150"),
    pytest.param(lambda: toroidal_grid(9, 11), id="toroidal-9x11"),
    pytest.param(lambda: ring_of_cliques(8, 6), id="ring-of-cliques-8x6"),
]

MEMBERSHIPS = ["id-based", "distance-based", "size-based"]


def priorities_for(g: Graph):
    """One instance of every priority scheme family, seeded per graph."""
    rng = np.random.default_rng(99)
    return [
        None,
        "highest-degree",
        RandomTimer(seed=5),
        ResidualEnergy(rng.random(g.n).tolist()),
        ExplicitPriority(rng.integers(0, 4, g.n).tolist()),  # many ties
    ]


def assert_engines_agree(g: Graph, k: int, priority, membership) -> None:
    scalar = khop_cluster(
        g, k, priority=priority, membership=membership,
        require_connected=False, engine="scalar",
    )
    batched = khop_cluster(
        g, k, priority=priority, membership=membership,
        require_connected=False, engine="batched",
    )
    assert batched.head_of == scalar.head_of
    assert batched.heads == scalar.heads
    assert batched.rounds == scalar.rounds


class TestScenarioEquivalence:
    @pytest.mark.parametrize("make", SCENARIOS)
    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_priorities_agree(self, make, membership, k):
        g = make()
        for priority in priorities_for(g):
            assert_engines_agree(g, k, priority, membership)

    @pytest.mark.parametrize("make", SCENARIOS)
    def test_post_churn_states_agree(self, make):
        """Equivalence holds on incrementally derived without_nodes graphs."""
        g = make()
        rng = np.random.default_rng(3)
        for _ in range(3):
            victim = int(rng.integers(0, g.n))
            g = g.without_nodes([victim])  # single-node incremental path
            for membership in MEMBERSHIPS:
                assert_engines_agree(g, 2, None, membership)

    def test_unknown_engine_rejected(self):
        with pytest.raises(InvalidParameterError):
            khop_cluster(toroidal_grid(3, 4), 1, engine="nope")


class TestPropertyEquivalence:
    @given(connected_graphs(), ks, st.sampled_from(MEMBERSHIPS))
    @settings(max_examples=50, deadline=None)
    def test_random_graphs_agree(self, g, k, membership):
        assert_engines_agree(g, k, None, membership)
        batched = khop_cluster(g, k, membership=membership)
        validate_clustering(batched)

    @given(connected_graphs(min_n=4), st.sampled_from(MEMBERSHIPS))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_with_ties_and_churn(self, g, membership):
        prio = ExplicitPriority([u % 3 for u in range(g.n)])
        assert_engines_agree(g, 2, prio, membership)
        g2 = g.without_nodes([g.n - 1])
        assert_engines_agree(g2, 2, prio, membership)


class TestKeyFaithfulness:
    """key_array must never change the order keys() defines."""

    def test_tuple_valued_explicit_priority_falls_back(self):
        # Non-numeric (tuple) keys cannot become a float array; the
        # batched engine must rank them via keys() instead of crashing.
        g = toroidal_grid(4, 5)
        prio = ExplicitPriority([(u % 3, -u) for u in range(g.n)])
        assert_engines_agree(g, 2, prio, "id-based")

    def test_huge_ints_beyond_float53_stay_exact(self):
        # 2**53 and 2**53 + 1 collide in float64; the exact integer
        # order must survive into the batched engine's ranks.
        from repro.net.generators import path_graph

        g = path_graph(6)
        prio = ExplicitPriority([2**53 + 1, 2**53, 10, 11, 12, 13])
        for membership in MEMBERSHIPS:
            assert_engines_agree(g, 1, prio, membership)

    def test_unrepresentable_floats_fall_back(self):
        from repro.net.generators import path_graph

        g = path_graph(4)
        prio = ExplicitPriority([10**400, 1, 2, 3])  # overflows float64
        assert_engines_agree(g, 1, prio, "id-based")
