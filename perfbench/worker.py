"""Run one workload in this process: ``python -m perfbench.worker``.

:mod:`perfbench.run` starts one worker per workload, with BLAS/OpenMP
threads pinned to 1 and a fixed hash seed.  The worker imports the
program (timed once, as ``import.s``), makes the inputs, and then

* untraced (``--trace 0``): repeats whole passes until ``--seconds`` have
  passed (at least one), then set-up alone until its median is steady;
* traced (``--trace 1``): runs one untraced pass, then one pass with the
  entry-point wrappers of :mod:`perfbench.layers` and the obs layer on,
  and writes the span tree as a ``repro-khop-trace/1`` JSONL file.

Its last line of output is one JSON object with the whole result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
MAX_PASSES = 50
#: Set-up repeats until it has MIN_SETUPS samples and SETUP_SECONDS of
#: them (at most MAX_SETUPS): a cheap set-up gets enough samples for a
#: steady median, an expensive one is not repeated needlessly.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 25
SERVICE_KINDS = ("join", "leave", "move", "link_down", "link_up", "flow")


@dataclass
class PassRecord:
    setup_s: float
    ops: Any
    result: Any
    setup_signature: dict


def run_pass(wl: Any, inputs: Any, root: Optional[str] = None) -> PassRecord:
    """One set-up plus operation phase (inside ``root`` when traced), then checks."""
    from repro import obs

    gc.collect()
    with obs.span(root) if root else nullcontext():
        t = perf_counter()
        state = wl.setup(inputs)
        setup_s = perf_counter() - t
        setup_signature = wl.setup_signature(state)
        ops = wl.ops(state, inputs)
    result = wl.check(state, inputs, ops)
    ops.output = None
    return PassRecord(setup_s, ops, result, setup_signature)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def latency_metrics(passes: list[PassRecord]) -> tuple[dict[str, float], list[str]]:
    """Per-kind latencies pooled over passes, and one note line per kind."""
    pooled: dict[str, list[float]] = {}
    for p in passes:
        for kind, values in p.ops.latencies.items():
            pooled.setdefault(kind, []).extend(values)
    out: dict[str, float] = {}
    notes = []
    for kind in ("read", "write"):
        values = pooled.get(kind, [])
        out[f"{kind}.samples"] = float(len(values))
        out[f"{kind}.p50_ms"] = 1e3 * percentile(values, 0.5) if values else 0.0
        out[f"{kind}.p90_ms"] = 1e3 * percentile(values, 0.9) if values else 0.0
        if values:
            above = sum(v > percentile(values, 0.9) for v in values)
            notes.append(
                f"{kind} latency: p50 {out[f'{kind}.p50_ms']:.3f} ms, "
                f"p90 {out[f'{kind}.p90_ms']:.3f} ms "
                f"(n={len(values)}, {above} above p90)"
            )
    for kind in SERVICE_KINDS:
        values = pooled.get(kind, [])
        out[f"service.{kind}_p50_ms"] = 1e3 * percentile(values, 0.5) if values else 0.0
        if values:
            notes.append(
                f"service {kind} p50 {out[f'service.{kind}_p50_ms']:.3f} ms (n={len(values)})"
            )
    return out, notes


def source_digest() -> str:
    """Digest of the program and benchmark sources (identifies the commit)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    ):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(out: Path, key: str, part: str, value: Any) -> Optional[str]:
    """Compare ``value`` with what an earlier run of this commit recorded.

    The first run stores it; a later run whose value differs reports the
    difference, so nondeterminism cannot hide inside time noise.
    """
    path = out / "signatures" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    value = json.loads(json.dumps(value, sort_keys=True))
    if part in record:
        if record[part] != value:
            return f"{part} differs from an earlier run of the same sources and seed"
        return None
    record[part] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return None


def summarize(passes: list[PassRecord], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics: medians over passes and set-ups."""
    setup_s = statistics.median(setups)
    op_s = statistics.median(p.ops.seconds for p in passes)
    return {
        "total_s": setup_s + op_s,
        "setup_s": setup_s,
        "ops_per_s": passes[0].ops.count / op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cds_size": float(passes[0].result.cds_size),
    }


def measured(wl: Any, inputs: Any, seconds: float, min_passes: int) -> dict[str, Any]:
    passes: list[PassRecord] = []
    start = perf_counter()
    while len(passes) < MAX_PASSES:
        passes.append(run_pass(wl, inputs))
        if len(passes) >= min_passes and perf_counter() - start >= seconds:
            break
    setups = [p.setup_s for p in passes]
    setup_sigs = [p.setup_signature for p in passes]
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
    ):
        gc.collect()
        t = perf_counter()
        state = wl.setup(inputs)
        setups.append(perf_counter() - t)
        setup_sigs.append(wl.setup_signature(state))
        del state
    problems = []
    if any(p.result.signature != passes[0].result.signature for p in passes):
        problems.append("work counts or outputs differ between passes")
    if any(s != setup_sigs[0] for s in setup_sigs):
        problems.append("set-up differs between repetitions")
    _, notes = latency_metrics(passes)
    notes.insert(0, f"{len(passes)} pass(es), {len(setups)} set-ups")
    return {
        "passes": passes,
        "e2e": summarize(passes, setups),
        "problems": problems,
        "notes": notes,
    }


def traced(wl: Any, inputs: Any, trace_path: Path, manifest: dict) -> dict[str, Any]:
    """One untraced pass, then one traced pass with every layer wrapped."""
    from repro import obs

    from perfbench.layers import Layers
    from perfbench.workloads import PASS_LAYERS

    base = run_pass(wl, inputs)
    layers = Layers()
    root_name = f"perfbench.{wl.name}"
    obs.reset()
    obs.reset_tracer()
    obs.set_enabled(True)
    layers.install()
    try:
        rec = run_pass(wl, inputs, root=root_name)
        gc.collect()
        spans = obs.take_finished()
        root = next(s for s in spans if s.name == root_name)
        metrics = layers.metrics(root)
        obs.write_trace(trace_path, spans, obs.run_manifest(**manifest))
    finally:
        layers.uninstall()
        obs.set_enabled(False)
    problems = []
    if rec.result.signature != base.result.signature:
        problems.append("the traced pass did different work than the untraced one")
    _, spans_read, _ = obs.read_trace(trace_path)
    if not spans_read or not obs.render_trace_summary(spans_read):
        problems.append(f"{trace_path} does not read back")
    base_total = base.setup_s + base.ops.seconds
    metrics["trace.overhead_frac"] = (rec.setup_s + rec.ops.seconds) / base_total - 1.0
    metrics.update(dict.fromkeys(PASS_LAYERS, 0.0))
    metrics.update(rec.result.extras)
    latencies, notes = latency_metrics([base])
    metrics.update(latencies)
    notes.append(f"trace written to {trace_path}")
    return {
        "passes": [base, rec],
        "layers": metrics,
        "problems": problems,
        "notes": notes,
    }


#: Per-layer metrics whose values must repeat exactly (work counts).
COUNTED_LAYERS = (
    "topology.draws",
    "graph.mutations",
    "oracle.rows_computed",
    "oracle.rows_inherited",
    "oracle.rows_patched",
    "oracle.batched_sweeps",
    "labels.entries",
    "paths.computed",
    "paths.inherited",
    "cluster.calls",
    "cds.calls",
    "headrouter.trees_inherited",
    "headrouter.walks_inherited",
    "router.calls",
    "delivery.attempts",
    "delivery.lost",
    "checkpoint.bytes",
    "service.rebuild_fallbacks",
    "service.backbone_rebuilds",
    "service.head_merges",
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import repro  # noqa: F401

    # analysis.stats imports scipy.stats lazily, inside the first sweep
    # cell; importing it here keeps that second out of every clock.
    import scipy.stats  # noqa: F401

    from perfbench import workloads
    import_s = perf_counter() - t0

    seed = args.seed % 2**31
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.quick, out)
    inputs = wl.inputs(seed)
    tag = f"{wl.name}-s{seed}{'-quick' if args.quick else ''}-{source_digest()}"
    if args.trace:
        trace_path = out / f"{wl.name}{'-quick' if args.quick else ''}.trace.jsonl"
        run = traced(
            wl,
            inputs,
            trace_path,
            {"benchmark": wl.name, "seed": seed, "quick": args.quick},
        )
        run["layers"]["import.s"] = import_s
        counted = {name: run["layers"][name] for name in COUNTED_LAYERS}
        problem = check_record(out, tag, "layers", counted)
        if problem:
            run["problems"].append(problem)
    else:
        run = measured(wl, inputs, args.seconds, 2 if args.quick else 1)
    passes = run["passes"]
    problem = check_record(out, tag, "pass", passes[0].result.signature)
    if problem:
        run["problems"].append(problem)
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    result = {
        "workload": wl.name,
        "seed": seed,
        "correct": failed == 0 and not run["problems"],
        "attempted": attempted,
        "failed": failed,
        "problems": run["problems"],
        "notes": run["notes"],
        "metrics": run["layers"] if args.trace else run["e2e"],
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
