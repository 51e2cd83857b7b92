"""Self-test of the benchmark, on tiny instances (``--quick``).

Runs the four workloads traced and then untraced through the real entry
point and checks that every metric ``BENCHMARK.json`` names is emitted
with its unit, that the output checks pass, that the work counts repeat
(the second run compares its counts with the first), and that each trace
file opens with the obs readers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.obs import read_trace, render_trace_summary

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layer metrics that must be non-zero on the workload that drives them.
DRIVEN = {
    "route-5k": ("topology.draws", "labels.entries", "router.calls", "load.s", "read.samples"),
    "serve-400": (
        "guards.csr_s",
        "wal.s",
        "checkpoint.bytes",
        "delivery.attempts",
        "service.flow_p50_ms",
        "write.samples",
    ),
    "mobility-2k": ("mobility.s", "mobile.self_s", "graph.mutations", "oracle.rows_patched"),
    "paper-sweep": ("verify.s", "sweep.self_s", "cds.calls", "cds.select_s"),
}


def _bench(cwd: Path, out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--quick", "--seconds", "0.05",
         "--out", str(out), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    return result


def _check_metrics(result: dict, declared: list[dict]) -> None:
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in declared
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_quick_runs_report_every_metric_and_repeat(tmp_path: Path) -> None:
    traced = _result(_bench(ROOT, tmp_path, "--workload", "all", "--trace", "1"))
    _check_metrics(traced, SPEC["per_layer"])
    for workload, names in DRIVEN.items():
        for name in names:
            assert traced["metrics"][f"{workload}.{name}"]["value"] > 0, (workload, name)
        manifest, spans, _ = read_trace(tmp_path / f"{workload}-quick.trace.jsonl")
        assert manifest["schema"] == "repro-khop-trace/1"
        assert any(sp["name"] == f"perfbench.{workload}" for sp in spans)
        assert render_trace_summary(spans)

    # The untraced run compares its passes with each other and with the
    # untraced pass the traced run recorded for the same seed.
    untraced = _result(_bench(ROOT, tmp_path, "--workload", "all", "--trace", "0"))
    _check_metrics(untraced, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _bench(tmp_path, tmp_path / "out", "--workload", WORKLOADS[0])
    assert proc.returncode != 0
    assert not proc.stdout.strip()
