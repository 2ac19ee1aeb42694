"""Greedy submodular cover (Wolsey 1982).

The submodular cover problem asks for the *smallest* set ``S`` with
``F(S) >= theta`` for a monotone submodular ``F``. Wolsey's greedy —
repeatedly add the item with the largest marginal gain until the target is
reached — uses at most ``(1 + ln(F_max / delta))`` times the optimal number
of items. Both BSM algorithms rely on it: Algorithm 1's first stage covers
``g'_tau`` to 1, and Algorithm 2 covers ``F'_alpha`` to ``2(1 - eps/c)``
inside each bisection step.

This module is a thin shim over :func:`repro.core.greedy.greedy_max`, so
it inherits the batched oracle fast path (one
:meth:`~repro.core.functions.GroupedObjective.gains_batch` call per
round) without any change in semantics.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.functions import GroupedObjective, ObjectiveState, Scalarizer
from repro.core.greedy import greedy_max
from repro.core.result import GreedyStep


def greedy_cover(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    target: float,
    *,
    budget: Optional[int] = None,
    state: Optional[ObjectiveState] = None,
    candidates: Optional[Iterable[int]] = None,
    tolerance: float = 1e-9,
) -> tuple[ObjectiveState, list[GreedyStep], bool]:
    """Greedily add items until ``scalarizer`` reaches ``target``.

    Parameters
    ----------
    target:
        The cover threshold ``theta``.
    budget:
        Hard cap on added items (defaults to the whole ground set). The
        BSM algorithms pass ``k`` (practical mode) or ``k ln(c/eps)``
        (theoretical mode of Algorithm 2).
    tolerance:
        Treat values within ``tolerance`` of the target as covered; the
        truncated scalarizers saturate via floating-point sums, so an exact
        ``>=`` comparison would sporadically miss by one ulp.

    Returns
    -------
    (state, steps, covered):
        ``covered`` reports whether the target was reached within budget.
    """
    if budget is None:
        budget = objective.num_items
    state, steps = greedy_max(
        objective,
        scalarizer,
        budget,
        state=state,
        candidates=candidates,
        stop_value=target,
        tolerance=tolerance,
    )
    value = scalarizer.value(state.group_values, objective.group_weights)
    covered = value >= target - tolerance
    return state, steps, covered
