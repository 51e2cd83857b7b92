"""Micro-benchmarks of the computational kernels (profiling guard rails).

These catch performance regressions in the pieces every experiment hammers:
topology generation, k-hop clustering, the A-NCR neighbor rule and the
AC-LMST backbone stage.
"""

from conftest import BENCH_TRIALS  # noqa: F401

from repro.core.clustering import khop_cluster
from repro.core.neighbor import ancr_neighbors
from repro.core.pipeline import build_backbone
from repro.net.topology import random_topology


def test_bench_topology_generation(benchmark):
    benchmark(lambda: random_topology(200, 6.0, seed=11))


def test_bench_khop_clustering(benchmark):
    topo = random_topology(200, 6.0, seed=13)
    topo.graph.oracle.rows(range(topo.graph.n))  # warm the distance cache

    result = benchmark(lambda: khop_cluster(topo.graph, 2))
    assert result.num_clusters > 0


def test_bench_ancr(benchmark):
    topo = random_topology(200, 6.0, seed=14)
    cl = khop_cluster(topo.graph, 2)
    nmap = benchmark(lambda: ancr_neighbors(cl))
    assert nmap


def test_bench_aclmst_pipeline(benchmark):
    topo = random_topology(200, 6.0, seed=15)
    cl = khop_cluster(topo.graph, 2)
    res = benchmark(lambda: build_backbone(cl, "AC-LMST"))
    assert res.cds_size > 0
