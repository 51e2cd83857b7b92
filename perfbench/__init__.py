"""End-to-end and per-layer benchmark of the k-hop clustering system.

Four closed-loop workloads, each with one client, each run in a fresh
single-threaded process:

* ``route-5k`` -- the read path: batched flow routing on a static
  N=5000 backbone (``repro-khop traffic`` regime, landmark backend);
* ``serve-400`` -- interleaved writes and reads: the long-lived service
  (``repro-khop serve`` defaults at n=400, WAL and checkpoints on);
* ``mobility-2k`` -- bulk writes: RandomWaypoint snapshots re-clustered
  and re-routed every epoch (N=2000, delta engine);
* ``paper-sweep`` -- the paper's Figs. 5-6 grid: many tiny backbones,
  all five algorithms, ``verify`` on.

Run one workload::

    python3 -m perfbench.run --workload route-5k --seed 1 --seconds 10 --trace 0

or all four (``--workload all``).  ``--trace 0`` prints the end-to-end
metrics, measured with tracing off; ``--trace 1`` prints the per-layer
metrics of a traced pass and writes one ``repro-khop-trace/1`` JSONL
file per workload.  ``--quick`` runs the same code paths on tiny
instances (the self-test in ``test_perfbench.py`` uses it).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Nothing under ``src/`` knows about this package: per-layer timings come
from wrappers the traced run installs around each module's public entry
points (``perfbench.layers``).
"""
