"""Unconstrained baselines: Greedy (SM) and a thin RSM wrapper.

``Greedy`` maximises the utility objective ``f`` alone (the classic
``(1 - 1/e)``-approximation) and is both a baseline curve in every figure
and the sub-routine producing ``S_f`` / ``OPT'_f`` inside the BSM
algorithms. The RSM baseline is :func:`repro.core.saturate.saturate`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.functions import AverageUtility, GroupedObjective
from repro.core.greedy import greedy_max, stochastic_greedy_max
from repro.core.result import SolverResult, make_result
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import check_positive_int


def greedy_utility(
    objective: GroupedObjective,
    k: int,
    *,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Classic greedy for ``max_{|S|=k} f(S)`` (the paper's "Greedy")."""
    check_positive_int(k, "k")
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        state, steps = greedy_max(
            objective, AverageUtility(), k, candidates=candidates
        )
    return make_result(
        "Greedy",
        objective,
        state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        steps=steps,
    )


def stochastic_greedy_utility(
    objective: GroupedObjective,
    k: int,
    *,
    epsilon: float = 0.1,
    seed: SeedLike = None,
) -> SolverResult:
    """Stochastic-greedy SM baseline (subsampling accelerator)."""
    check_positive_int(k, "k")
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        state, steps = stochastic_greedy_max(
            objective, AverageUtility(), k, epsilon=epsilon, seed=seed
        )
    return make_result(
        "StochasticGreedy",
        objective,
        state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        steps=steps,
        extra={"epsilon": epsilon},
    )
