"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.experiments.harness` — generic sweep runners (vary ``tau``,
  vary ``k``) over any dataset/algorithm combination, with sub-routine
  reuse and optional Monte-Carlo re-scoring for influence instances.
* :mod:`repro.experiments.figures` — one entry per paper figure/table,
  binding the harness to the exact workload and parameter grids.
* :mod:`repro.experiments.reporting` — plain-text series/table rendering
  so benches print rows directly comparable to the paper's plots.
"""

from repro.experiments.harness import (
    ExperimentRow,
    SweepResult,
    sweep_k,
    sweep_tau,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.pareto import FrontierPoint, hypervolume, pareto_frontier
from repro.experiments.plotting import Series, ascii_chart, sweep_chart
from repro.experiments.reporting import render_series, render_table

__all__ = [
    "ExperimentRow",
    "FIGURES",
    "FrontierPoint",
    "Series",
    "SweepResult",
    "ascii_chart",
    "hypervolume",
    "pareto_frontier",
    "render_series",
    "render_table",
    "run_figure",
    "sweep_chart",
    "sweep_k",
    "sweep_tau",
]
