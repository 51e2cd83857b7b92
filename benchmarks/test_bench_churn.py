"""Churn-under-repair benchmark: incremental maintenance vs from-scratch.

The tentpole claim this benchmark measures: with the single-node
``without_nodes`` fast path (CSR splice + oracle cache inheritance),
head-centric ball validation, and the member-failure backbone splice,
:func:`~repro.maintenance.churn.simulate_churn` no longer rebuilds graph +
oracle + clustering on every failure — and must beat the from-scratch
baseline (:func:`~repro.maintenance.churn.simulate_churn_rebuild`, the
seed behavior) by **>= 3x** at the acceptance grid point N=2000 with 50
failures.

The full grid point runs when ``REPRO_BENCH_FULL=1`` (``make
bench-churn``); the default tier-1 pass uses a reduced instance so the
gate stays fast.  The speedup assertion is enforced under
``REPRO_BENCH_STRICT``; deliberate bench runs (strict/full/persist env
flags) record the measurement to ``BENCH_churn.json`` at the repo root.
"""

import os
import time

from conftest import persist_bench

from repro.maintenance.churn import simulate_churn, simulate_churn_rebuild
from repro.net.graph import Graph
from repro.net.topology import random_topology

#: (n, failures) — the acceptance grid point, and the reduced tier-1 one.
FULL_CASE = (2000, 50)
QUICK_CASE = (800, 20)

#: Average degree (same regime as the scaling sweep).
CHURN_DEGREE = 12.0

#: Cluster radius for the maintained backbone.
CHURN_K = 2


def _case():
    return FULL_CASE if os.environ.get("REPRO_BENCH_FULL") else QUICK_CASE


def test_bench_churn_incremental_vs_rebuild(benchmark):
    n, failures = _case()
    topo = random_topology(n, degree=CHURN_DEGREE, seed=31)
    # Fresh copies so neither run inherits the other's warm oracle caches.
    g_rebuild = Graph(topo.graph.n, topo.graph.edges)
    g_incremental = Graph(topo.graph.n, topo.graph.edges)

    # CPU time so the strict >= 3x gate is robust to CI scheduling noise.
    t0 = time.process_time()
    baseline = simulate_churn_rebuild(
        g_rebuild, CHURN_K, failures=failures, seed=5
    )
    t1 = time.process_time()
    report = benchmark.pedantic(
        simulate_churn,
        args=(g_incremental, CHURN_K),
        kwargs=dict(failures=failures, seed=5),
        rounds=1,
        iterations=1,
    )
    t2 = time.process_time()
    rebuild_s, incremental_s = t1 - t0, t2 - t1

    # Same failure order; the incremental path must absorb the same
    # stream (it may stop at the same partition point, never earlier).
    assert [o.failed_node for o in report.outcomes] == [
        o.failed_node for o in baseline.outcomes
    ]
    assert report.stopped_at == baseline.stopped_at
    # §3.3's locality argument: most failures are members and touch nothing.
    assert report.actions["none"] > report.actions["recluster"]

    speedup = rebuild_s / max(incremental_s, 1e-9)
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert speedup >= 3.0, (
            f"incremental churn ({incremental_s:.2f}s) should be >= 3x "
            f"faster than from-scratch ({rebuild_s:.2f}s)"
        )
    record = dict(
        n=n,
        failures=failures,
        k=CHURN_K,
        incremental_seconds=round(incremental_s, 3),
        rebuild_seconds=round(rebuild_s, 3),
        speedup=round(speedup, 1),
        actions=dict(report.actions),
        mean_locality=round(report.mean_locality, 3),
    )
    benchmark.extra_info.update(record)
    persist_bench("BENCH_churn.json", {"benchmark": "churn", **record})


def test_bench_churn_oracle_inheritance(benchmark):
    """Cache carry-over under churn: balls survive failures that miss them.

    Directly measures tentpole prong 3 at the oracle level, without the
    repair ladder on top: after warming per-head-like balls, a removal
    far from most of them inherits nearly the whole ball cache.
    """
    n, _ = _case()
    topo = random_topology(n, degree=CHURN_DEGREE, seed=33)
    g = topo.graph.use_distance_backend("lazy")
    sources = list(range(0, n, 25))
    for s in sources:
        g.oracle.ball(s, CHURN_K)

    def one_removal():
        return g.without_nodes([n // 2])

    g2 = benchmark.pedantic(one_removal, rounds=1, iterations=1)
    stats = g2.oracle.stats()
    assert stats.balls_inherited > 0.8 * len(sources)
    record = dict(
        n=n,
        balls_warmed=len(sources),
        balls_inherited=stats.balls_inherited,
        rows_inherited=stats.rows_inherited,
    )
    benchmark.extra_info.update(record)
    persist_bench(
        "BENCH_churn.json", {"benchmark": "oracle_inheritance", **record}
    )
