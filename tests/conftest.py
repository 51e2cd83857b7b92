"""Shared fixtures, hypothesis strategies and networkx references."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import strategies as st

from repro.net.graph import Graph
from repro.net.topology import Topology, random_topology


# --------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------- #


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 18, max_extra: int = 25):
    """Random connected graphs: a random spanning tree plus extra edges.

    The tree guarantees connectivity; the extra edges densify arbitrarily,
    so the strategy covers trees, sparse graphs and near-cliques.
    """
    n = draw(st.integers(min_n, max_n))
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.add((p, i))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 20):
    """Random labelled trees (connected, m = n - 1)."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.append((p, i))
    return Graph(n, edges)


#: The paper's k range.
ks = st.integers(1, 4)


# --------------------------------------------------------------------- #
# independent references
# --------------------------------------------------------------------- #


class NxCanonicalPaths:
    """Canonical shortest paths of ``g`` computed by networkx alone.

    The reference for :mod:`repro.net.paths`, written from its
    definition: the levels of ``s = min(u, v)`` come from
    ``nx.single_source_shortest_path_length`` (memoized per root), and
    the walk back from ``t = max(u, v)`` steps to the minimum-ID
    neighbor one level closer to ``s`` at each hop.  Nothing of
    ``repro`` runs but :meth:`Graph.to_networkx`.
    """

    def __init__(self, g: Graph) -> None:
        self._nxg = g.to_networkx()
        self._levels: dict[int, dict[int, int]] = {}

    def __call__(self, u: int, v: int) -> tuple[int, ...] | None:
        """The path oriented ``u -> v``; ``None`` if none exists."""
        if u == v:
            return (u,)
        s, t = min(u, v), max(u, v)
        if s not in self._levels:
            self._levels[s] = nx.single_source_shortest_path_length(self._nxg, s)
        level = self._levels[s]
        if t not in level:
            return None
        rev = [t]
        while rev[-1] != s:
            up = level[rev[-1]] - 1
            rev.append(min(w for w in self._nxg[rev[-1]] if level.get(w) == up))
        path = tuple(reversed(rev))
        return path if u == s else path[::-1]


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def topo100() -> Topology:
    """A 100-node, degree-6 connected unit-disk topology (paper workload)."""
    return random_topology(100, degree=6.0, seed=42)


@pytest.fixture(scope="session")
def topo60() -> Topology:
    """A smaller instance for the distributed-protocol tests."""
    return random_topology(60, degree=6.0, seed=7)


@pytest.fixture(scope="session")
def dense80() -> Topology:
    """A dense (D = 10) instance."""
    return random_topology(80, degree=10.0, seed=3)
