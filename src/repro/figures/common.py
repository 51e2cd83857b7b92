"""Shared machinery for the figure drivers.

Every driver follows the same contract:

* ``run(...) -> data`` — compute the figure's data (respecting the
  ``REPRO_TRIALS`` budget so benchmarks stay fast);
* ``render(data) -> str`` — tables + ASCII plots;
* ``main()`` — run, print, and write ``results/<figure>.csv``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from ..analysis.ascii_plot import line_plot
from ..analysis.sweep import SweepConfig, SweepResult, default_trial_budget, run_sweep
from ..analysis.tables import sweep_table, write_csv
from ..core.pipeline import ALGORITHMS

__all__ = [
    "RESULTS_DIR",
    "PAPER_NS",
    "cds_sweep",
    "render_cds_panels",
    "save_sweep_csv",
]

#: Output directory for CSV artifacts: ``results/`` under the working
#: directory, so a run never writes into the installed package's tree.
RESULTS_DIR = Path("results")

#: Node counts swept by the paper ("from 50 to 200").
PAPER_NS: tuple[int, ...] = (50, 80, 110, 140, 170, 200)


def cds_sweep(
    degree: float,
    *,
    ks: Sequence[int] = (1, 2, 3, 4),
    ns: Sequence[int] = PAPER_NS,
    algorithms: Sequence[str] = ALGORITHMS,
    trials: Optional[int] = None,
    base_seed: int = 20050610,
) -> SweepResult:
    """Run the CDS-size sweep behind Figures 5/6/7."""
    budget = trials if trials is not None else default_trial_budget()
    config = SweepConfig(
        ns=tuple(ns),
        degrees=(float(degree),),
        ks=tuple(ks),
        algorithms=tuple(algorithms),
        max_trials=budget,
        min_trials=min(10, budget),
        base_seed=base_seed,
    )
    return run_sweep(config)


def render_cds_panels(
    result: SweepResult, degree: float, *, figure_name: str
) -> str:
    """Render one panel per k: table + ASCII plot of CDS size vs N."""
    chunks = []
    for k in result.config.ks:
        series = {
            alg: [
                (float(n), stat.mean)
                for n, stat in result.series("cds_size", alg, degree, k)
            ]
            for alg in result.config.algorithms
        }
        chunks.append(f"--- {figure_name} (k = {k}, D = {degree:g}) ---")
        chunks.append(sweep_table(result, degree, k, "cds_size"))
        chunks.append(
            line_plot(
                series,
                title=f"{figure_name}: size of CDS vs N (k={k}, D={degree:g})",
                xlabel="number of nodes",
                ylabel="size of CDS",
            )
        )
    return "\n\n".join(chunks)


def save_sweep_csv(result: SweepResult, name: str) -> Path:
    """Write the sweep's flat rows to ``results/<name>.csv``."""
    return write_csv(RESULTS_DIR / f"{name}.csv", result.to_csv_rows())
