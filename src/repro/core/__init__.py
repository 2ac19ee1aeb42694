"""Core algorithms: the paper's contribution plus its direct baselines."""

from repro.core.baselines import greedy_utility, stochastic_greedy_utility
from repro.core.bsm_saturate import bsm_saturate
from repro.core.cover import greedy_cover
from repro.core.distributed import greedi, partition_items
from repro.core.dynamic import DynamicMaximizer
from repro.core.local_search import polish, swap_local_search
from repro.core.nonmonotone import (
    MemoizedSetFunction,
    PenalizedObjective,
    double_greedy,
    penalized_random_greedy,
    random_greedy,
)
from repro.core.sliding_window import (
    SlidingWindowMaximizer,
    sliding_window_utility,
)
from repro.core.weak import (
    greedy_guarantee,
    is_monotone,
    is_submodular,
    sampled_submodularity_ratio,
    submodularity_ratio,
    weak_greedy,
)
from repro.core.functions import (
    AverageUtility,
    BSMCombined,
    GroupedObjective,
    MinUtility,
    ObjectiveState,
    PerUserObjective,
    Scalarizer,
    TruncatedFairness,
    WeightedCombination,
)
from repro.core.greedy import (
    greedy_max,
    stochastic_greedy_max,
    threshold_greedy_max,
)
from repro.core.mwu import mwu_robust
from repro.core.problem import BSMProblem
from repro.core.streaming import sieve_streaming
from repro.core.streaming_bsm import reservoir_sample, streaming_tsgreedy
from repro.core.result import GreedyStep, SolverResult
from repro.core.saturate import saturate
from repro.core.smsc import smsc
from repro.core.tsgreedy import bsm_tsgreedy

__all__ = [
    "AverageUtility",
    "BSMCombined",
    "BSMProblem",
    "GreedyStep",
    "DynamicMaximizer",
    "GroupedObjective",
    "MemoizedSetFunction",
    "MinUtility",
    "ObjectiveState",
    "PenalizedObjective",
    "PerUserObjective",
    "Scalarizer",
    "SlidingWindowMaximizer",
    "SolverResult",
    "TruncatedFairness",
    "WeightedCombination",
    "bsm_saturate",
    "bsm_tsgreedy",
    "double_greedy",
    "greedi",
    "greedy_cover",
    "greedy_guarantee",
    "greedy_max",
    "greedy_utility",
    "is_monotone",
    "is_submodular",
    "mwu_robust",
    "partition_items",
    "penalized_random_greedy",
    "polish",
    "random_greedy",
    "reservoir_sample",
    "sampled_submodularity_ratio",
    "saturate",
    "sieve_streaming",
    "streaming_tsgreedy",
    "sliding_window_utility",
    "smsc",
    "stochastic_greedy_max",
    "stochastic_greedy_utility",
    "submodularity_ratio",
    "swap_local_search",
    "threshold_greedy_max",
    "weak_greedy",
]
