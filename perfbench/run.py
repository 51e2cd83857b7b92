"""Benchmark entry point: ``python3 -m perfbench.run``.

Runs each requested workload in a fresh worker process (BLAS/OpenMP
threads pinned to 1, fixed hash seed, ``src/`` on the path), prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 20000, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  With ``--workload all`` the metric
names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict[str, str]:
    """The worker's environment: single-threaded, reproducible, untraced."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_worker(name: str, args: argparse.Namespace) -> Optional[dict[str, Any]]:
    """Run one workload in a fresh process; None when it did not finish."""
    cmd = [
        sys.executable,
        "-m",
        "perfbench.worker",
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        str(args.out),
    ]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def render(result: dict[str, Any], metrics: list[dict[str, Any]]) -> list[str]:
    """Human-readable report of one workload's result."""
    frac = result["failed"] / result["attempted"]
    lines = [
        f"== {result['workload']}  seed={result['seed']}  "
        f"correct={'yes' if result['correct'] else 'NO'}  "
        f"failed {result['failed']}/{result['attempted']} (failed_frac {frac:.4g})"
    ]
    lines += [f"   {p}" for p in result["problems"]]
    for m in metrics:
        value = result["metrics"][m["name"]]
        lines.append(f"   {m['name']:<28} {value:>16.6g} {m['unit']}")
    lines += [f"   {note}" for note in result["notes"]]
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="the same code paths on tiny instances"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / ".bench_out",
        help="directory for traces, service state and run signatures",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    total: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        result = run_worker(name, args)
        if result is None:
            return 1
        missing = [m["name"] for m in metrics if m["name"] not in result["metrics"]]
        if missing:
            print(f"{name}: metrics not produced: {missing}", file=sys.stderr)
            return 1
        print("\n".join(render(result, metrics)))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for m in metrics:
            total["metrics"][prefix + m["name"]] = {
                "value": result["metrics"][m["name"]],
                "unit": m["unit"],
            }
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
