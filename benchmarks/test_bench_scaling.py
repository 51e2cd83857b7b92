"""Large-N scaling sweep for the lazy distance oracle (N = 200 → 5000).

The seed implementation sat every algorithm on a dense ``(n, n)``
hop-distance matrix — O(n²) memory and, because each BFS level is an
``(n, n)`` boolean matrix product, far worse time.  These benchmarks pin
down what the CSR-backed :class:`~repro.net.oracle.LazyDistanceOracle`
buys on the clustering + backbone hot path:

* ``test_bench_scaling_lazy`` — full pipeline (cluster, AC-LMST backbone,
  verification) at N = 200 / 1000 / 5000 on the lazy backend, asserting
  that only head rows are computed and that the oracle's peak cache
  stays far below the O(n²) matrix footprint.
* ``test_bench_batched_materialization`` — the bit-packed
  :func:`~repro.net.oracle.multi_source_bfs` kernel in 64-source chunks
  (the sweep :meth:`~repro.net.oracle.LazyDistanceOracle.rows` runs)
  against sequential per-source BFS.

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

The all-pairs backend those numbers compare against is gone; the lazy
backend answers every query shape the paper's constructions use.
``test_bench_batched_materialization`` pins the batched kernel's >= 2x
margin over sequential per-source BFS.  The full trajectory, including
the old dense records, lives in ``BENCH_scaling.json`` at the repo root.
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
from repro.net.oracle import BATCH_BITS, DIST_DTYPE, _csr_bfs, multi_source_bfs
from repro.net.topology import random_topology

#: The scaling sweep grid (the paper stops at 200; the oracle should not).
SCALING_NS = (200, 1000, 5000)

#: Average degree for the sweep — comfortably above the connectivity
#: threshold (~log n) at every grid point, so redraws stay rare.
SCALING_DEGREE = 12.0


def _hot_path(n: int, edges):
    """Cold-cache clustering + backbone build on the lazy default."""
    g = Graph(n, edges)
    clustering = khop_cluster(g, 2)
    result = build_backbone(clustering, "AC-LMST")
    return g, result


@pytest.mark.parametrize("n", SCALING_NS)
def test_bench_scaling_lazy(benchmark, n):
    topo = random_topology(n, degree=SCALING_DEGREE, seed=21)
    edges = topo.graph.edges

    g, result = benchmark.pedantic(
        _hot_path, args=(n, edges), rounds=1, iterations=1
    )
    verify_backbone(result)
    stats = g.oracle.stats()
    dense_bytes = 4 * n * n  # the int32 matrix this sweep never builds

    assert result.cds_size > 0
    # The whole pipeline (clustering, neighbor rule, gateways, paths,
    # verification) runs on the lazy oracle and never computes all rows.
    assert g.oracle.backend == "lazy"
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


#: Node counts for the batched-materialization benchmark: the acceptance
#: criterion's full grid point (``REPRO_BENCH_FULL=1`` / `make
#: bench-scaling`), and a reduced instance so the tier-1 gate stays fast.
BATCHED_FULL_N = 5000
BATCHED_QUICK_N = 1200


def test_bench_batched_materialization(benchmark):
    """Bit-packed batched BFS vs sequential per-source ``_csr_bfs``.

    Computes every row both ways.  The batched side is the sweep
    :meth:`~repro.net.oracle.LazyDistanceOracle.rows` runs: the kernel
    advances 64 sources per sweep over uint64 frontier bitsets, chunked
    in node order, and must beat n sequential BFS runs by at least 2x
    (enforced under ``REPRO_BENCH_STRICT``; recorded on deliberate bench
    runs).
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
        out = np.empty((n, n), dtype=DIST_DTYPE)
        for start in range(0, n, BATCH_BITS):
            chunk = np.arange(start, min(start + BATCH_BITS, n))
            out[chunk] = multi_source_bfs(indptr, indices, n, chunk)
        return out

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
