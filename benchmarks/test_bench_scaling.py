"""Large-N scaling sweep for the lazy distance oracle (N = 200 → 5000).

The seed implementation sat every algorithm on a dense ``(n, n)``
hop-distance matrix — O(n²) memory and, because each BFS level is an
``(n, n)`` boolean matrix product, far worse time.  These benchmarks pin
down what the CSR-backed :class:`~repro.net.oracle.LazyDistanceOracle`
buys on the clustering + backbone hot path:

* ``test_bench_scaling_lazy`` — full pipeline (cluster, AC-LMST backbone,
  verification) at N = 200 / 1000 / 5000 on the lazy backend, asserting
  that **no dense matrix is ever materialized** and that the oracle's
  peak cache stays far below the O(n²) matrix footprint.
* ``test_bench_dense_vs_lazy_speedup`` — paired dense/lazy runs on the
  same instance, asserting a real speedup and identical results.

Timings land in pytest-benchmark's table and in ``extra_info`` (the
"recorded timings" the scaling acceptance criterion asks for).

Representative measurements on the development container (one run,
``khop_cluster(k=2)`` + ``build_backbone("AC-LMST")``).  PR 1 numbers,
when the dense backend still ran boolean matrix products per BFS level:

======  ===========  ==========  ============================
N       dense        lazy        lazy peak cached bytes
======  ===========  ==========  ============================
800     10.1 s       0.11 s      ~0.9 MB (vs 1.3 MB matrix)
1500    89.6 s       0.22 s      ~1.5 MB (vs 4.5 MB matrix)
5000    (infeasible) ~1.0 s      ~3.8 MB (vs 50 MB matrix)
======  ===========  ==========  ============================

PR 2 moved dense materialization onto the bit-packed batched BFS kernel
(``multi_source_bfs``): dense at N=600 fell from ~6 s to ~0.09 s, and
``test_bench_batched_materialization`` pins the kernel's >= 2x margin
over sequential per-source BFS at N=5000.  The full trajectory lives in
``BENCH_scaling.json`` at the repo root.
"""

import os
import time

import numpy as np
import pytest

from conftest import BENCH_TRIALS, persist_bench  # noqa: F401

from repro.cds.verify import verify_backbone
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.net.graph import Graph
from repro.net.oracle import DIST_DTYPE, _csr_bfs, _dense_all_pairs
from repro.net.topology import random_topology

#: The scaling sweep grid (the paper stops at 200; the oracle should not).
SCALING_NS = (200, 1000, 5000)

#: Average degree for the sweep — comfortably above the connectivity
#: threshold (~log n) at every grid point, so redraws stay rare.
SCALING_DEGREE = 12.0


def _hot_path(n: int, edges, backend: str):
    """Cold-cache clustering + backbone build on a pinned backend."""
    g = Graph(n, edges).use_distance_backend(backend)
    clustering = khop_cluster(g, 2)
    result = build_backbone(clustering, "AC-LMST")
    return g, result


@pytest.mark.parametrize("n", SCALING_NS)
def test_bench_scaling_lazy(benchmark, n):
    topo = random_topology(n, degree=SCALING_DEGREE, seed=21)
    edges = topo.graph.edges

    g, result = benchmark.pedantic(
        _hot_path, args=(n, edges, "lazy"), rounds=1, iterations=1
    )
    verify_backbone(result)
    stats = g.oracle.stats()
    dense_bytes = 4 * n * n  # the int32 matrix this sweep never builds

    assert result.cds_size > 0
    assert g.distance_backend == "lazy"
    # The whole pipeline (clustering, neighbor rule, gateways, paths,
    # verification) must complete without ever building a dense oracle.
    assert "dense" not in g._oracles
    assert stats.rows_computed < n  # only head rows, never all-pairs
    if n >= 1000:
        # Sub-quadratic memory: peak cache well under the dense matrix.
        assert stats.peak_cached_bytes * 4 < dense_bytes

    record = dict(
        n=n,
        m=len(edges),
        heads=len(result.heads),
        gateways=result.num_gateways,
        rows_computed=stats.rows_computed,
        batched_sweeps=stats.batched_sweeps,
        peak_cached_bytes=stats.peak_cached_bytes,
        dense_matrix_bytes=dense_bytes,
        seconds=round(benchmark.stats.stats.mean, 4),
    )
    benchmark.extra_info.update(record)
    persist_bench("BENCH_scaling.json", {"benchmark": "scaling_lazy", **record})


def test_bench_dense_vs_lazy_speedup(benchmark):
    """Paired comparison on one instance: lazy must beat dense, results equal."""
    n = 600
    topo = random_topology(n, degree=SCALING_DEGREE, seed=22)
    edges = topo.graph.edges

    t0 = time.process_time()
    _, dense_result = _hot_path(n, edges, "dense")
    t1 = time.process_time()
    g, lazy_result = benchmark.pedantic(
        _hot_path, args=(n, edges, "lazy"), rounds=1, iterations=1
    )
    t2 = time.process_time()
    dense_s, lazy_s = t1 - t0, t2 - t1

    # Same instance, same algorithms — backends must agree exactly.
    assert dense_result.clustering.head_of == lazy_result.clustering.head_of
    assert dense_result.selected_links == lazy_result.selected_links
    assert dense_result.gateways == lazy_result.gateways
    assert "dense" not in g._oracles

    # The dense backend now materializes through the batched bit-packed
    # kernel, which collapsed the old ~60-100x gap at this size to ~1.5-2x
    # (dense dropped from ~6s to ~0.1s at N=600).  Lazy must still win —
    # it computes only the rows/balls the pipeline touches — but the
    # strict margin is "faster", not "2x faster".  Wall-clock assertions
    # are environment-dependent, so the tier-1 gate only records timings;
    # `make bench-scaling` sets REPRO_BENCH_STRICT=1 to enforce them.
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert lazy_s < dense_s, (
            f"lazy backend ({lazy_s:.2f}s) should beat dense ({dense_s:.2f}s)"
        )
    record = dict(
        n=n, dense_seconds=round(dense_s, 3), lazy_seconds=round(lazy_s, 3),
        speedup=round(dense_s / max(lazy_s, 1e-9), 1),
    )
    benchmark.extra_info.update(record)
    persist_bench(
        "BENCH_scaling.json", {"benchmark": "dense_vs_lazy", **record}
    )


#: Node counts for the batched-materialization benchmark: the acceptance
#: criterion's full grid point (``REPRO_BENCH_FULL=1`` / `make
#: bench-scaling`), and a reduced instance so the tier-1 gate stays fast.
BATCHED_FULL_N = 5000
BATCHED_QUICK_N = 1200


def test_bench_batched_materialization(benchmark):
    """Bit-packed batched BFS vs sequential per-source ``_csr_bfs``.

    Materializing all rows is the dense-regime warm-up the tentpole
    targets: the batched kernel advances 64 sources per sweep over
    uint64 frontier bitsets, and must beat n sequential BFS runs by at
    least 2x (enforced under ``REPRO_BENCH_STRICT``; recorded on
    deliberate bench runs).
    """
    n = BATCHED_FULL_N if os.environ.get("REPRO_BENCH_FULL") else BATCHED_QUICK_N
    topo = random_topology(n, degree=SCALING_DEGREE, seed=23)
    indptr, indices = topo.graph.csr_adjacency

    def sequential():
        out = np.empty((n, n), dtype=DIST_DTYPE)
        for u in range(n):
            out[u], _ = _csr_bfs(indptr, indices, n, u)
        return out

    def batched():
        # The production dense-materialization path: locality-ordered
        # 64-source bit-packed sweeps (oracle._dense_all_pairs).
        matrix, _ = _dense_all_pairs(topo.graph)
        return matrix

    # CPU time, not wall clock: the strict ratio must not flip on a noisy
    # shared CI runner.
    t0 = time.process_time()
    seq_matrix = sequential()
    t1 = time.process_time()
    batch_matrix = benchmark.pedantic(batched, rounds=1, iterations=1)
    t2 = time.process_time()
    seq_s, batch_s = t1 - t0, t2 - t1

    assert np.array_equal(seq_matrix, batch_matrix)  # same distances
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert batch_s * 2 < seq_s, (
            f"batched BFS ({batch_s:.2f}s) should be >= 2x faster than "
            f"sequential ({seq_s:.2f}s)"
        )
    record = dict(
        n=n,
        m=int(indices.size // 2),
        sequential_seconds=round(seq_s, 3),
        batched_seconds=round(batch_s, 3),
        speedup=round(seq_s / max(batch_s, 1e-9), 1),
    )
    benchmark.extra_info.update(record)
    persist_bench(
        "BENCH_scaling.json", {"benchmark": "batched_materialization", **record}
    )
