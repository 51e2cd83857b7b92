"""Command-line interface: regenerate any paper artifact from the terminal.

Installed as ``repro-khop`` (see pyproject).  Examples::

    repro-khop figure5 --trials 20          # Figure 5 with a reduced budget
    repro-khop figure4 --k 3 --seed 11      # a Figure-4 style instance
    repro-khop claims --trials 10           # check the six §4 claims
    repro-khop overhead                     # distributed message overhead
    repro-khop traffic --flows 10000        # batch-route a flow workload
    repro-khop traffic --lifetime-epochs 40 # traffic-driven lifetime loop
    repro-khop mobility --snapshots 30      # traffic over RandomWaypoint motion
    repro-khop chaos --seed 7 --events 500  # fault campaign + invariant checks
    repro-khop stats                        # metrics + span flame of a quick run
    repro-khop traffic --trace out.jsonl    # JSONL trace + manifest of the run
    repro-khop all --trials 5               # everything, quickly
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib
from types import ModuleType
from typing import Any, Callable, Optional, Sequence

from . import obs
from .errors import LintError
from .faults import render_chaos, run_chaos
from .figures import ablations, claims, figure4, figure5, figure6, figure7, overhead
from .net.oracle import BACKENDS
from .net.topology import random_topology
from .service import ServiceConfig, run_service
from .traffic.mobile import render_mobile, simulate_mobile_traffic
from .traffic.report import render_traffic, run_traffic
from .traffic.workloads import WORKLOADS, make_workload

__all__ = ["main", "build_parser"]

_TRACE_HELP = (
    "enable the observability layer and write a JSONL trace "
    "(manifest + span tree + metrics snapshot) to PATH"
)


def _add_instance_options(
    p: argparse.ArgumentParser,
    *,
    n: int,
    degree: float = 8.0,
    k: int = 2,
    algorithm: Optional[str] = "AC-LMST",
    seed: int = 7,
) -> None:
    """The unit-disk instance: ``--n``, ``--degree``, ``--k``,
    ``--algorithm`` (left out when ``algorithm`` is None) and ``--seed``."""
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--degree", type=float, default=degree)
    p.add_argument("--k", type=int, default=k)
    if algorithm is not None:
        p.add_argument("--algorithm", default=algorithm)
    p.add_argument("--seed", type=int, default=seed)


def _add_trace_option(p: argparse.ArgumentParser, help: str = _TRACE_HELP) -> None:
    p.add_argument("--trace", default=None, metavar="PATH", help=help)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-khop`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-khop",
        description=(
            "Reproduce 'Connected k-Hop Clustering in Ad Hoc Networks' "
            "(Yang, Wu, Cao — ICPP 2005)"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trial budget per experiment cell (default: paper's 100 / ±1%% CI rule)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p4 = sub.add_parser("figure4", help="single-instance gateway gallery")
    _add_instance_options(p4, n=100, degree=6.0, algorithm=None, seed=4)

    # The option names are run_traffic's keywords (``traffic`` and
    # ``stats`` pass their parsed options through unchanged).
    pt = sub.add_parser(
        "traffic", help="batch-route a flow workload over the backbone"
    )
    _add_instance_options(pt, n=400)
    pt.add_argument("--workload", default="uniform", choices=tuple(WORKLOADS))
    pt.add_argument("--flows", type=int, default=5000)
    pt.add_argument(
        "--lifetime-epochs",
        type=int,
        default=0,
        help="also run the rotation-vs-static traffic-driven lifetime loop",
    )
    pt.add_argument(
        "--backend",
        default="landmark",
        choices=BACKENDS,
        help="hop-distance backend (results are identical on every choice; "
        "landmark keeps the batch's pair queries cheap)",
    )
    pt.add_argument(
        "--balance",
        action="store_true",
        help="load-adaptive multipath routing: spread flows across "
        "k-shortest head walks to flatten backbone hot spots",
    )
    pt.add_argument(
        "--radio-budget",
        type=float,
        default=None,
        metavar="PKTS",
        help="per-radio packet budget; derives per-link capacities from "
        "the backbone and reports congestion drops against them",
    )
    _add_trace_option(pt)

    pm = sub.add_parser(
        "mobility",
        help="route a workload over RandomWaypoint snapshots (edge-delta engine)",
    )
    _add_instance_options(pm, n=400)
    pm.add_argument("--workload", default="uniform", choices=tuple(WORKLOADS))
    pm.add_argument("--flows", type=int, default=2000)
    pm.add_argument("--snapshots", type=int, default=20)
    pm.add_argument(
        "--speed",
        type=float,
        nargs=2,
        default=(0.5, 1.5),
        metavar=("VMIN", "VMAX"),
        help="random-waypoint speed range, units per step",
    )
    pm.add_argument(
        "--engine",
        default="delta",
        choices=("delta", "rebuild"),
        help="incremental edge-delta maintenance vs from-scratch baseline",
    )
    _add_trace_option(pm)

    pc = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with per-batch invariant checks",
    )
    _add_instance_options(pc, n=120)
    pc.add_argument("--events", type=int, default=500)
    pc.add_argument("--flows", type=int, default=200)
    pc.add_argument(
        "--join-weight",
        type=float,
        default=0.0,
        help="campaign weight of node-arrival events (0 disables growth; "
        "> 0 interleaves grow+shrink+rewire)",
    )
    pc.add_argument(
        "--keep-going",
        action="store_true",
        help="collect every violation instead of stopping at the first",
    )
    _add_trace_option(
        pc, _TRACE_HELP + " (violation repro lines then carry the same flag)"
    )

    ps = sub.add_parser(
        "stats",
        help="run a quick instrumented traffic experiment and print the "
        "metrics registry + span flame summary",
    )
    _add_instance_options(ps, n=400)
    ps.add_argument("--flows", type=int, default=1000)
    ps.add_argument("--backend", default="landmark", choices=BACKENDS)
    _add_trace_option(ps, "also write the JSONL trace to PATH")

    pv = sub.add_parser(
        "serve",
        help="run the long-lived engine service over a seeded event "
        "schedule, with crash-consistent checkpoints and replay recovery",
    )
    _add_instance_options(pv, n=100, algorithm="NC-Mesh")
    pv.add_argument("--backend", default="lazy", choices=BACKENDS)
    pv.add_argument("--events", type=int, default=200)
    pv.add_argument("--base-loss", type=float, default=0.05)
    pv.add_argument("--checkpoint-every", type=int, default=50)
    pv.add_argument("--guard-every", type=int, default=1)
    pv.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="service directory for the event log and checkpoints "
        "(default: in-memory only, no durability)",
    )
    pv.add_argument(
        "--resume",
        action="store_true",
        help="recover from the service directory's durable state and "
        "continue the schedule instead of starting fresh",
    )
    pv.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on event-log appends (faster; kill -9 "
        "consistency is kept, power-loss durability is not)",
    )

    pl = sub.add_parser(
        "lint", help="run the repro-lint static-analysis suite"
    )
    pl.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories relative to the repo root "
        "(default: src tests benchmarks)",
    )
    pl.add_argument(
        "--root",
        default=".",
        help="repository root the paths are resolved against",
    )
    pl.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    sub.add_parser("figure5", help="CDS size vs N, sparse (D=6)")
    sub.add_parser("figure6", help="CDS size vs N, dense (D=10)")
    sub.add_parser("figure7", help="effect of k (heads and CDS size)")
    sub.add_parser("claims", help="verify the six §4 summary claims")
    sub.add_parser("overhead", help="distributed message overhead vs k")
    sub.add_parser("ablations", help="membership/priority/neighbor-rule ablations")
    sub.add_parser("all", help="run every artifact")
    return parser


def _options(args: argparse.Namespace, *drop: str) -> dict[str, Any]:
    """The parsed options except the trial budget, the trace path and
    ``drop``: with the command name, exactly a trace manifest's knobs."""
    skip = {"trials", "trace", *drop}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _run_figure4(args: argparse.Namespace) -> int:
    data = figure4.run(n=args.n, degree=args.degree, k=args.k, seed=args.seed)
    print(figure4.render(data))
    return 0


def _run_traffic(args: argparse.Namespace) -> int:
    print(render_traffic(run_traffic(**_options(args, "command"))))
    return 0


def _run_mobility(args: argparse.Namespace) -> int:
    topo = random_topology(args.n, degree=args.degree, seed=args.seed)
    wl = make_workload(args.workload, topo.graph.n, args.flows, seed=args.seed)
    report = simulate_mobile_traffic(
        topo,
        args.k,
        wl,
        snapshots=args.snapshots,
        speed=tuple(args.speed),
        seed=args.seed,
        algorithm=args.algorithm,
        engine=args.engine,
    )
    print(render_mobile(report))
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    report = run_chaos(
        seed=args.seed,
        events=args.events,
        n=args.n,
        degree=args.degree,
        k=args.k,
        algorithm=args.algorithm,
        flows=args.flows,
        join_weight=args.join_weight,
        stop_on_violation=not args.keep_going,
        trace_path=args.trace,
    )
    print(render_chaos(report))
    return 0 if report.ok else 1


def _run_stats(args: argparse.Namespace) -> int:
    """One instrumented quick traffic run: manifest, span flame, metrics."""
    run_traffic(**_options(args, "command"))
    spans = obs.take_finished()
    manifest = obs.run_manifest(**_options(args))
    knobs = ", ".join(f"{k}={v}" for k, v in manifest["knobs"].items())
    print(
        f"manifest: schema={manifest['schema']} "
        f"git={manifest['git_sha'][:12]} python={manifest['python']}"
    )
    print(f"knobs: {knobs}")
    print()
    print(obs.render_trace_summary(spans))
    print()
    print(obs.render_metrics())
    if args.trace is not None:
        out = obs.write_trace(args.trace, spans, manifest)
        print(f"\ntrace written to {out}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The supervised service loop over a seeded event schedule."""
    config = ServiceConfig(
        n=args.n,
        degree=args.degree,
        k=args.k,
        algorithm=args.algorithm,
        backend=args.backend,
        seed=args.seed,
        base_loss=args.base_loss,
        checkpoint_every=args.checkpoint_every,
        guard_every=args.guard_every,
        fsync=not args.no_fsync,
    )
    engine, report = run_service(
        config, events=args.events, directory=args.dir, resume=args.resume
    )
    print(report.render())
    # One-line digest of the observable state: two runs that processed
    # the same schedule — straight through or via kill/recover/replay —
    # print the same value (the CI recovery check greps it).
    fp = zlib.crc32(repr(engine.fingerprint()).encode())
    print(f"fingerprint          {fp:08x}")
    if args.dir is not None:
        print(f"service directory     {args.dir}")
    print()
    print(obs.render_metrics())
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from .lint import RULE_DOCS, run_lint

    if args.list_rules:
        for code, (name, what) in sorted(RULE_DOCS.items()):
            print(f"{code}  {name:<22} {what}")
        return 0
    run = run_lint(args.root, args.paths or None)
    if run.diagnostics:
        print(LintError(tuple(run.diagnostics)).report())
        return 1
    print(
        f"repro-lint: {run.files_checked} files clean "
        f"({len(run.rules)} rules, {run.suppressed} pragma-suppressed)"
    )
    return 0


def _run_claims(args: argparse.Namespace) -> int:
    sparse = figure5.run(trials=args.trials)
    dense = figure6.run(trials=args.trials)
    verdicts = claims.check_claims(sparse, dense)
    print(claims.render_verdicts(verdicts))
    return 0 if all(v.holds for v in verdicts) else 1


def _artifacts(*modules: ModuleType) -> Callable[[argparse.Namespace], int]:
    """A runner that prints and exports each figure module's artifact."""

    def run(args: argparse.Namespace) -> int:
        for module in modules:
            module.main()
        return 0

    return run


_RUNNERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "figure4": _run_figure4,
    "traffic": _run_traffic,
    "mobility": _run_mobility,
    "chaos": _run_chaos,
    "stats": _run_stats,
    "serve": _run_serve,
    "lint": _run_lint,
    "figure5": _artifacts(figure5),
    "figure6": _artifacts(figure6),
    "figure7": _artifacts(figure7),
    "claims": _run_claims,
    "overhead": _artifacts(overhead),
    "ablations": _artifacts(ablations),
    "all": _artifacts(figure4, figure5, figure6, figure7, overhead, ablations),
}

#: Commands that trace every run; the others trace only under ``--trace``.
_ALWAYS_TRACED = ("stats", "serve")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.trials is not None:
        os.environ["REPRO_TRIALS"] = str(args.trials)
    run = _RUNNERS[args.command]
    trace = getattr(args, "trace", None)
    if trace is None and args.command not in _ALWAYS_TRACED:
        return run(args)
    obs.set_enabled(True)
    obs.reset()
    obs.reset_tracer()
    try:
        code = run(args)
        if trace is not None and args.command != "stats":
            manifest = obs.run_manifest(**_options(args))
            out = obs.write_trace(trace, obs.take_finished(), manifest)
            print(f"trace written to {out}")
        return code
    finally:
        obs.set_enabled(False)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
