"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np
import pytest

from repro.core.functions import GroupedObjective, ObjectiveState, Scalarizer
from repro.core.greedy import GAIN_EPS
from repro.datasets.paper_example import figure1_instance
from repro.problems.coverage import CoverageObjective
from repro.problems.facility import FacilityLocationObjective


@pytest.fixture
def figure1() -> CoverageObjective:
    """The paper's Figure-1 running example (fresh per test)."""
    return figure1_instance()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_coverage(rng: np.random.Generator) -> CoverageObjective:
    """Random 10-item / 30-user / 3-group coverage instance."""
    sets = [
        rng.choice(30, size=rng.integers(1, 8), replace=False)
        for _ in range(10)
    ]
    groups = rng.integers(0, 3, size=30)
    # Ensure every group is present.
    groups[:3] = [0, 1, 2]
    return CoverageObjective(sets, groups)


@pytest.fixture
def small_facility(rng: np.random.Generator) -> FacilityLocationObjective:
    """Random 8-facility / 20-user / 2-group FL instance."""
    benefits = rng.uniform(0.0, 1.0, size=(20, 8))
    groups = rng.integers(0, 2, size=20)
    groups[:2] = [0, 1]
    return FacilityLocationObjective(benefits, groups)


# ---------------------------------------------------------------------------
# Brute-force reference implementations
# ---------------------------------------------------------------------------
def brute_force_best(
    objective: GroupedObjective,
    k: int,
    *,
    metric: str = "utility",
    feasible: "callable | None" = None,
) -> tuple[tuple[int, ...], float]:
    """Exhaustively search all size-k subsets; returns (best set, value).

    ``metric`` is ``"utility"`` (f) or ``"fairness"`` (g); ``feasible``
    optionally filters candidate sets given their group-value vector.
    """
    best_set: tuple[int, ...] = ()
    best_val = -np.inf
    for combo in itertools.combinations(range(objective.num_items), k):
        values = objective.evaluate(combo)
        if feasible is not None and not feasible(values):
            continue
        if metric == "utility":
            val = float(objective.group_weights @ values)
        elif metric == "fairness":
            val = float(values.min())
        else:
            raise ValueError(metric)
        if val > best_val:
            best_val = val
            best_set = combo
    return best_set, best_val


def naive_greedy(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    state: "ObjectiveState | None" = None,
    candidates: "Iterable[int] | None" = None,
    stop_value: "float | None" = None,
    tolerance: float = 1e-12,
) -> tuple[ObjectiveState, list[int]]:
    """Per-item greedy with the solvers' selection rule; returns (state, picks).

    Each round scores every remaining candidate with one
    ``scalarizer.gain(objective.gains(...))`` call, then runs the
    sequential ``gain > best + GAIN_EPS`` scan in ascending id order
    over the band of gains within ``GAIN_EPS`` of the round's best.
    Restricting the scan to that band only matters when gains form a
    chain of near-ties spaced under ``GAIN_EPS`` apart; a lazy loop
    cannot see items below the band, so the band is the rule.
    """
    if state is None:
        state = objective.new_state()
    weights = objective.group_weights
    pool = sorted(
        {int(v) for v in (
            range(objective.num_items) if candidates is None else candidates
        )}
    )
    picks: list[int] = []

    def reached() -> bool:
        value = scalarizer.value(state.group_values, weights)
        return stop_value is not None and value >= stop_value - tolerance

    if reached():
        return state, picks
    for _ in range(budget):
        gains = {
            v: scalarizer.gain(
                state.group_values, objective.gains(state, v), weights
            )
            for v in pool
            if not state.in_solution[v]
        }
        if not gains:
            break
        top = max(gains.values())
        best_item, best_gain = -1, 0.0
        for item, gain in gains.items():
            if gain > top - GAIN_EPS and gain > best_gain + GAIN_EPS:
                best_item, best_gain = item, gain
        if best_item < 0:
            break
        objective.add(state, best_item)
        picks.append(best_item)
        if reached():
            break
    return state, picks


def brute_force_bsm(
    objective: GroupedObjective, k: int, tau: float
) -> tuple[tuple[int, ...], float, float]:
    """Exact BSM optimum by enumeration: returns (set, f, g).

    Uses the exact ``OPT_g`` (fairness brute force) for the constraint,
    mirroring Problem 1.
    """
    _, opt_g = brute_force_best(objective, k, metric="fairness")
    threshold = tau * opt_g - 1e-12
    best_set, best_f = brute_force_best(
        objective,
        k,
        metric="utility",
        feasible=lambda values: values.min() >= threshold,
    )
    values = objective.evaluate(best_set)
    return best_set, best_f, float(values.min())


def assert_monotone_submodular(
    objective: GroupedObjective,
    chains: Iterable[tuple[Sequence[int], Sequence[int], int]],
) -> None:
    """Check f_i(S+v)-f_i(S) >= f_i(T+v)-f_i(T) and monotonicity on given
    (S, T, v) triples with S subseteq T, v not in T — for every group."""
    for small, large, item in chains:
        small = list(small)
        large = list(large)
        assert set(small) <= set(large)
        assert item not in large
        v_small = objective.evaluate(small)
        v_small_plus = objective.evaluate(small + [item])
        v_large = objective.evaluate(large)
        v_large_plus = objective.evaluate(large + [item])
        gain_small = v_small_plus - v_small
        gain_large = v_large_plus - v_large
        assert np.all(v_small_plus >= v_small - 1e-12), "monotonicity violated"
        assert np.all(v_large_plus >= v_large - 1e-12), "monotonicity violated"
        assert np.all(
            gain_small >= gain_large - 1e-9
        ), f"submodularity violated for S={small}, T={large}, v={item}"
