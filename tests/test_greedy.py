"""Tests for repro.core.greedy: plain, lazy and stochastic greedy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import greedy as greedy_module
from repro.core.functions import AverageUtility, TruncatedFairness
from repro.core.greedy import greedy_max, stochastic_greedy_max
from repro.problems.facility import FacilityLocationObjective
from tests.conftest import brute_force_best, naive_greedy


class TestGreedyMax:
    def test_figure1_greedy_solution(self, figure1):
        state, steps = greedy_max(figure1, AverageUtility(), 2)
        assert set(state.solution) == {0, 1}  # {v1, v2} per Example 3.1
        assert figure1.utility(state) == pytest.approx(0.75)
        assert len(steps) == 2
        assert steps[0].item == 0  # v1 covers 5 users, the largest gain

    def test_lazy_equals_plain(self, small_coverage):
        lazy_state, _ = greedy_max(small_coverage, AverageUtility(), 5)
        plain_state, _ = naive_greedy(small_coverage, AverageUtility(), 5)
        assert small_coverage.utility(lazy_state) == pytest.approx(
            small_coverage.utility(plain_state)
        )

    def test_lazy_equals_plain_facility(self, small_facility):
        lazy_state, _ = greedy_max(small_facility, AverageUtility(), 4)
        plain_state, _ = naive_greedy(small_facility, AverageUtility(), 4)
        assert small_facility.utility(lazy_state) == pytest.approx(
            small_facility.utility(plain_state)
        )

    def test_lazy_uses_fewer_oracle_calls(self, small_coverage):
        # oracle_calls counts items scored: at most plain greedy's whole
        # remaining pool per round, in at most 1 + rounds * ceil(log2 n)
        # batches.
        n, budget = small_coverage.num_items, 5
        small_coverage.reset_counter()
        naive_greedy(small_coverage, AverageUtility(), budget)
        plain_calls = small_coverage.oracle_calls
        small_coverage.reset_counter()
        _, steps = greedy_max(small_coverage, AverageUtility(), budget)
        rounds = min(budget, len(steps) + 1)
        assert small_coverage.oracle_calls <= plain_calls
        assert small_coverage.batch_oracle_calls <= 1 + rounds * math.ceil(
            math.log2(n)
        )

    @pytest.mark.parametrize("min_batch", [1, greedy_module._MIN_BATCH])
    def test_stale_near_tie_inside_the_band_is_rescored(
        self, monkeypatch, min_batch
    ):
        # Items 0 and 1 gain within GAIN_EPS of each other (item 1 by
        # 5e-15 more); item 2 wins round 0 without touching either. In
        # round 1 a one-item first batch rescores item 1 alone, but item
        # 0's stale bound lies inside the band below it, so item 0 must
        # be rescored too, and it wins on the lower id.
        monkeypatch.setattr(greedy_module, "_MIN_BATCH", min_batch)
        benefits = np.array([[0.5, 0.5 + 1e-14, 0.0], [0.0, 0.0, 1.0]])
        objective = FacilityLocationObjective(benefits, [0, 1])
        _, steps = greedy_max(objective, AverageUtility(), 2)
        assert [step.item for step in steps] == [2, 0]

    def test_budget_respected(self, small_coverage):
        state, _ = greedy_max(small_coverage, AverageUtility(), 3)
        assert state.size <= 3

    def test_stops_when_saturated(self, figure1):
        # All 12 users are covered by {v1, v2, v3, v4}; asking for more
        # items than useful stops at zero marginal gain.
        state, _ = greedy_max(figure1, AverageUtility(), 4)
        extra_state, _ = greedy_max(figure1, AverageUtility(), 4, state=state)
        assert extra_state.size == state.size

    def test_stop_value_cover_mode(self, figure1):
        scal = TruncatedFairness(1 / 3)
        state, _ = greedy_max(
            figure1, scal, 4, stop_value=1.0
        )
        assert scal.value(state.group_values, figure1.group_weights) >= 1.0 - 1e-9
        # Should need at most 2 items ({v3} alone gets group2 to 1/3 but
        # group1 needs v1 or v2).
        assert state.size <= 2

    def test_candidates_restriction(self, figure1):
        state, _ = greedy_max(
            figure1, AverageUtility(), 2, candidates=[2, 3]
        )
        assert set(state.solution) <= {2, 3}

    def test_warm_start(self, figure1):
        state = figure1.new_state()
        figure1.add(state, 3)
        state, _ = greedy_max(figure1, AverageUtility(), 1, state=state)
        assert 3 in state.solution
        assert state.size == 2
        assert state.solution[1] == 0  # v1 is the best addition to {v4}

    def test_greedy_achieves_1_minus_1_over_e(self, small_coverage):
        state, _ = greedy_max(small_coverage, AverageUtility(), 4)
        _, opt = brute_force_best(small_coverage, 4, metric="utility")
        assert small_coverage.utility(state) >= (1 - 1 / np.e) * opt - 1e-9

    def test_budget_validation(self, figure1):
        with pytest.raises(ValueError):
            greedy_max(figure1, AverageUtility(), 0)


class TestStochasticGreedy:
    def test_respects_budget(self, small_coverage):
        state, _ = stochastic_greedy_max(
            small_coverage, AverageUtility(), 4, seed=0
        )
        assert state.size <= 4

    def test_with_epsilon_near_zero_matches_greedy_quality(self, small_coverage):
        # Tiny epsilon -> sample ~ the whole ground set each round.
        state, _ = stochastic_greedy_max(
            small_coverage, AverageUtility(), 4, epsilon=0.0001, seed=0
        )
        greedy_state, _ = greedy_max(small_coverage, AverageUtility(), 4)
        assert small_coverage.utility(state) >= 0.9 * small_coverage.utility(
            greedy_state
        )

    def test_seed_determinism(self, small_coverage):
        a, _ = stochastic_greedy_max(
            small_coverage, AverageUtility(), 3, seed=11
        )
        b, _ = stochastic_greedy_max(
            small_coverage, AverageUtility(), 3, seed=11
        )
        assert a.solution == b.solution

    def test_epsilon_validation(self, small_coverage):
        with pytest.raises(ValueError):
            stochastic_greedy_max(
                small_coverage, AverageUtility(), 2, epsilon=1.5
            )
