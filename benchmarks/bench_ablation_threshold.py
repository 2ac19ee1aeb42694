"""Ablation — greedy accelerators: lazy vs stochastic vs thresholds.

The related-work section lists lazy forward [Leskovec et al. 2007] and
subsampling [Mirzasoleiman et al. 2015] as greedy accelerators; the
library additionally ships descending thresholds [Badanidiyuru &
Vondrák 2014]. This bench races the three (``greedy_max`` is the lazy
one) on the RAND MC dataset across k, reporting oracle calls and
solution quality —
the practical guidance for choosing a subroutine inside the BSM
algorithms.
"""

from __future__ import annotations

import time

from benchmarks._common import SEED, record, run_once
from repro.core.functions import AverageUtility
from repro.core.greedy import (
    greedy_max,
    stochastic_greedy_max,
    threshold_greedy_max,
)
from repro.datasets.registry import load_dataset
from repro.experiments.reporting import render_table


def _variants():
    return (
        ("lazy", lambda obj, k: greedy_max(obj, AverageUtility(), k)),
        ("stochastic", lambda obj, k: stochastic_greedy_max(
            obj, AverageUtility(), k, epsilon=0.1, seed=SEED)),
        ("threshold", lambda obj, k: threshold_greedy_max(
            obj, AverageUtility(), k, epsilon=0.1)),
    )


def _measure() -> list[list[object]]:
    data = load_dataset("rand-mc-c2", seed=SEED)
    objective = data.objective
    rows: list[list[object]] = []
    for k in (5, 20, 50):
        for name, run in _variants():
            objective.reset_counter()
            start = time.perf_counter()
            state, _ = run(objective, k)
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    k,
                    name,
                    objective.oracle_calls,
                    f"{elapsed:.4f}s",
                    f"{objective.utility(state):.4f}",
                ]
            )
    return rows


def bench_ablation_threshold(benchmark):
    rows = run_once(benchmark, _measure)
    record(
        "ablation_threshold",
        render_table(
            "Ablation: greedy accelerators (RAND MC c=2, n=500)",
            ["k", "variant", "oracle calls", "time", "f(S)"],
            rows,
        ),
    )
    # Quality: every accelerator stays within 10% of exact (lazy) greedy.
    by_k: dict[object, dict[str, float]] = {}
    for k, name, _, _, f_val in rows:
        by_k.setdefault(k, {})[name] = float(f_val)
    for k, values in by_k.items():
        for name, f_val in values.items():
            assert f_val >= 0.9 * values["lazy"], (k, name)
