"""Cross-module integration tests for the extension features.

The unit suites cover each extension in isolation; these tests chain
them the way a downstream user would: new domains through the full
solver stack, and streaming/dynamic structures feeding the polish step.
"""

from __future__ import annotations

import pytest

from repro.core.local_search import polish
from repro.core.problem import BSMProblem
from repro.core.streaming_bsm import streaming_tsgreedy
from repro.datasets.registry import load_dataset
from repro.experiments.harness import sweep_tau
from repro.experiments.plotting import sweep_chart


class TestNewDomainsThroughFullStack:
    @pytest.mark.parametrize("name", ["rec-latent-c2", "summ-blobs-c2"])
    def test_every_heuristic_solver_runs(self, name):
        data = load_dataset(name, seed=3, **(
            {"num_users": 60, "num_items": 30}
            if name.startswith("rec")
            else {"num_points": 40}
        ))
        problem = BSMProblem(data.objective, k=3, tau=0.5)
        for algorithm in (
            "greedy",
            "saturate",
            "mwu",
            "sieve-streaming",
            "greedi",
            "smsc",
            "bsm-tsgreedy",
            "bsm-saturate",
            "streaming-tsgreedy",
        ):
            result = problem.solve(algorithm)
            assert result.size <= 3, algorithm
            assert result.utility >= 0.0, algorithm

    def test_summarization_full_chain_vs_optimal(self):
        data = load_dataset("summ-blobs-c2", seed=9, num_points=16)
        problem = BSMProblem(data.objective, k=2, tau=0.6)
        approx = problem.solve("bsm-saturate")
        exact = problem.solve("bsm-optimal")
        assert exact.utility >= approx.utility - 1e-9 or not approx.feasible

    def test_sweep_and_chart_on_recommendation(self):
        data = load_dataset("rec-latent-c2", seed=2, num_users=60,
                            num_items=30)
        sweep = sweep_tau(
            data,
            3,
            (0.2, 0.8),
            algorithms=("Greedy", "BSM-Saturate"),
            seed=2,
        )
        chart = sweep_chart(sweep, "fairness")
        assert "BSM-Saturate" in chart
        assert "fairness vs tau" in chart


class TestStreamingPlusPolish:
    def test_streaming_solution_polishable(self, small_coverage):
        result = streaming_tsgreedy(small_coverage, 4, 0.6, seed=5)
        floor = 0.6 * result.extra["opt_g_estimate"]
        improved = polish(
            small_coverage, result, fairness_floor=floor, max_sweeps=3
        )
        assert improved.utility >= result.utility - 1e-9
        assert improved.size <= max(result.size, 4)
