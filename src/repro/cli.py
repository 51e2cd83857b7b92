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
from typing import Optional, Sequence

from .figures import ablations, claims, figure4, figure5, figure6, figure7, overhead
from .net.oracle import BACKENDS

__all__ = ["main", "build_parser"]


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
    p4.add_argument("--n", type=int, default=100)
    p4.add_argument("--degree", type=float, default=6.0)
    p4.add_argument("--k", type=int, default=2)
    p4.add_argument("--seed", type=int, default=4)

    pt = sub.add_parser(
        "traffic", help="batch-route a flow workload over the backbone"
    )
    pt.add_argument("--n", type=int, default=400)
    pt.add_argument("--degree", type=float, default=8.0)
    pt.add_argument("--k", type=int, default=2)
    pt.add_argument("--algorithm", default="AC-LMST")
    pt.add_argument(
        "--workload",
        default="uniform",
        choices=("uniform", "cbr", "hotspot", "gossip"),
    )
    pt.add_argument("--flows", type=int, default=5000)
    pt.add_argument("--seed", type=int, default=7)
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
    pt.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable the observability layer and write a JSONL trace "
        "(manifest + span tree + metrics snapshot) to PATH",
    )

    pm = sub.add_parser(
        "mobility",
        help="route a workload over RandomWaypoint snapshots (edge-delta engine)",
    )
    pm.add_argument("--n", type=int, default=400)
    pm.add_argument("--degree", type=float, default=8.0)
    pm.add_argument("--k", type=int, default=2)
    pm.add_argument("--algorithm", default="AC-LMST")
    pm.add_argument(
        "--workload",
        default="uniform",
        choices=("uniform", "cbr", "hotspot", "gossip"),
    )
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
    pm.add_argument("--seed", type=int, default=7)
    pm.add_argument(
        "--engine",
        default="delta",
        choices=("delta", "rebuild"),
        help="incremental edge-delta maintenance vs from-scratch baseline",
    )
    pm.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable the observability layer and write a JSONL trace to PATH",
    )

    pc = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with per-batch invariant checks",
    )
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--events", type=int, default=500)
    pc.add_argument("--n", type=int, default=120)
    pc.add_argument("--degree", type=float, default=8.0)
    pc.add_argument("--k", type=int, default=2)
    pc.add_argument("--algorithm", default="AC-LMST")
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
    pc.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable the observability layer and write a JSONL trace to PATH "
        "(violation repro lines then carry the same flag)",
    )

    ps = sub.add_parser(
        "stats",
        help="run a quick instrumented traffic experiment and print the "
        "metrics registry + span flame summary",
    )
    ps.add_argument("--n", type=int, default=400)
    ps.add_argument("--degree", type=float, default=8.0)
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--algorithm", default="AC-LMST")
    ps.add_argument("--flows", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=7)
    ps.add_argument(
        "--backend",
        default="landmark",
        choices=BACKENDS,
    )
    ps.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also write the JSONL trace to PATH",
    )

    pv = sub.add_parser(
        "serve",
        help="run the long-lived engine service over a seeded event "
        "schedule, with crash-consistent checkpoints and replay recovery",
    )
    pv.add_argument("--n", type=int, default=100)
    pv.add_argument("--degree", type=float, default=8.0)
    pv.add_argument("--k", type=int, default=2)
    pv.add_argument("--algorithm", default="NC-Mesh")
    pv.add_argument(
        "--backend",
        default="lazy",
        choices=BACKENDS,
    )
    pv.add_argument("--seed", type=int, default=7)
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


def _apply_budget(trials: Optional[int]) -> None:
    if trials is not None:
        os.environ["REPRO_TRIALS"] = str(trials)


def _start_tracing() -> None:
    """Switch the observability layer on with a clean registry/tracer."""
    from . import obs

    obs.set_enabled(True)
    obs.reset()
    obs.reset_tracer()


def _finish_tracing(trace_path: Optional[str], **knobs: object) -> None:
    """Export the collected spans/metrics and switch the layer back off."""
    from . import obs

    spans = obs.take_finished()
    if trace_path is not None:
        out = obs.write_trace(
            trace_path, spans, obs.run_manifest(**knobs)
        )
        print(f"trace written to {out}")
    obs.set_enabled(False)


def _run_stats(args: argparse.Namespace) -> int:
    """The ``repro-khop stats`` command: one instrumented quick run."""
    from . import obs
    from .traffic.report import run_traffic

    _start_tracing()
    run_traffic(
        n=args.n,
        degree=args.degree,
        k=args.k,
        algorithm=args.algorithm,
        flows=args.flows,
        seed=args.seed,
        backend=args.backend,
    )
    spans = obs.take_finished()
    manifest = obs.run_manifest(
        command="stats",
        n=args.n,
        degree=args.degree,
        k=args.k,
        algorithm=args.algorithm,
        flows=args.flows,
        seed=args.seed,
        backend=args.backend,
    )
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
    obs.set_enabled(False)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``repro-khop serve`` command: the supervised service loop."""
    from . import obs
    from .service import ServiceConfig, run_service

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
    _start_tracing()
    engine, report = run_service(
        config,
        events=args.events,
        directory=args.dir,
        resume=args.resume,
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
    obs.set_enabled(False)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _apply_budget(args.trials)

    if args.command == "lint":
        from .errors import LintError
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
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "chaos":
        from .faults import render_chaos, run_chaos

        if args.trace is not None:
            _start_tracing()
        chaos_report = run_chaos(
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
        print(render_chaos(chaos_report))
        if args.trace is not None:
            _finish_tracing(
                args.trace,
                command="chaos",
                seed=args.seed,
                events=args.events,
                n=args.n,
                degree=args.degree,
                k=args.k,
                algorithm=args.algorithm,
                flows=args.flows,
                join_weight=args.join_weight,
            )
        return 0 if chaos_report.ok else 1
    if args.command == "figure4":
        data = figure4.run(n=args.n, degree=args.degree, k=args.k, seed=args.seed)
        print(figure4.render(data))
    elif args.command == "traffic":
        from .traffic import report as traffic_report

        if args.trace is not None:
            _start_tracing()
        traffic_report.main(
            n=args.n,
            degree=args.degree,
            k=args.k,
            algorithm=args.algorithm,
            workload=args.workload,
            flows=args.flows,
            seed=args.seed,
            lifetime_epochs=args.lifetime_epochs,
            backend=args.backend,
            balance=args.balance,
            radio_budget=args.radio_budget,
        )
        if args.trace is not None:
            _finish_tracing(
                args.trace,
                command="traffic",
                n=args.n,
                degree=args.degree,
                k=args.k,
                algorithm=args.algorithm,
                workload=args.workload,
                flows=args.flows,
                seed=args.seed,
                lifetime_epochs=args.lifetime_epochs,
                backend=args.backend,
                balance=args.balance,
                radio_budget=args.radio_budget,
            )
    elif args.command == "mobility":
        from .traffic import mobile

        if args.trace is not None:
            _start_tracing()
        mobile.main(
            n=args.n,
            degree=args.degree,
            k=args.k,
            algorithm=args.algorithm,
            workload=args.workload,
            flows=args.flows,
            snapshots=args.snapshots,
            speed=tuple(args.speed),
            seed=args.seed,
            engine=args.engine,
        )
        if args.trace is not None:
            _finish_tracing(
                args.trace,
                command="mobility",
                n=args.n,
                degree=args.degree,
                k=args.k,
                algorithm=args.algorithm,
                workload=args.workload,
                flows=args.flows,
                snapshots=args.snapshots,
                speed=list(args.speed),
                seed=args.seed,
                engine=args.engine,
            )
    elif args.command == "figure5":
        figure5.main()
    elif args.command == "figure6":
        figure6.main()
    elif args.command == "figure7":
        figure7.main()
    elif args.command == "claims":
        sparse = figure5.run(trials=args.trials)
        dense = figure6.run(trials=args.trials)
        verdicts = claims.check_claims(sparse, dense)
        print(claims.render_verdicts(verdicts))
        if not all(v.holds for v in verdicts):
            return 1
    elif args.command == "overhead":
        overhead.main()
    elif args.command == "ablations":
        ablations.main()
    elif args.command == "all":
        figure4.main()
        figure5.main()
        figure6.main()
        figure7.main()
        overhead.main()
        ablations.main()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
