"""Micro-bench — per-item vs batch oracle on facility location.

Times greedy twice on the same n >= 2000 facility-location instance:
once as plain greedy driving the oracle per item (the pre-batch hot
loop, frozen here as a reference) and once as ``greedy_max``, the lazy
greedy loop every solver uses, which scores items through the batched
``gains_batch``/``gain_batch`` path. Both runs must select the
identical solution. The win is vectorization (one NumPy pass per batch
instead of one Python round-trip per item) plus laziness (only stale
bounds that could still win are rescored, so ``oracle_calls`` — items
scored — drops too; ``bench_greedy.py`` separates the two).

Emits ``benchmarks/results/BENCH_batch_oracle.json`` alongside the usual
rendered table. Run standalone (``PYTHONPATH=src python
benchmarks/bench_batch_oracle.py``) or through pytest-benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_batch_oracle.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, SEED, record, run_once
from repro.core.functions import AverageUtility, GroupedObjective, Scalarizer
from repro.core.greedy import GAIN_EPS, greedy_max
from repro.problems.facility import FacilityLocationObjective, kmedian_benefits

#: Instance size (the acceptance bar is n >= 2000 facilities). The
#: candidate pool n drives the per-item path's Python round-trips — the
#: cost the batch oracle removes; m sets the per-call arithmetic, which
#: both paths pay identically.
NUM_USERS = 800
NUM_FACILITIES = 2048
NUM_GROUPS = 4
BUDGET = 12

#: Required wall-time ratio (per-item / batch) for plain greedy.
MIN_SPEEDUP = 3.0


def _instance() -> FacilityLocationObjective:
    rng = np.random.default_rng(SEED)
    users = rng.normal(size=(NUM_USERS, 2))
    facilities = rng.normal(size=(NUM_FACILITIES, 2))
    benefits = kmedian_benefits(users, facilities)
    groups = rng.integers(0, NUM_GROUPS, size=NUM_USERS)
    groups[:NUM_GROUPS] = np.arange(NUM_GROUPS)
    return FacilityLocationObjective(benefits, groups)


def _per_item_plain_greedy(
    objective: GroupedObjective, scalarizer: Scalarizer, budget: int
) -> tuple[int, ...]:
    """The pre-batch plain greedy loop, one oracle call per candidate."""
    state = objective.new_state()
    weights = objective.group_weights
    remaining = sorted(range(objective.num_items))
    for _ in range(budget):
        best_item, best_gain = -1, 0.0
        for item in remaining:
            gain = scalarizer.gain(
                state.group_values, objective.gains(state, item), weights
            )
            if gain > best_gain + GAIN_EPS:
                best_item, best_gain = item, gain
        if best_item < 0:
            break
        objective.add(state, best_item)
        remaining.remove(best_item)
    return state.solution


def _measure() -> dict:
    objective = _instance()
    scalarizer = AverageUtility()

    objective.reset_counter()
    start = time.perf_counter()
    per_item_solution = _per_item_plain_greedy(objective, scalarizer, BUDGET)
    per_item_elapsed = time.perf_counter() - start
    per_item_calls = objective.oracle_calls

    objective.reset_counter()
    start = time.perf_counter()
    batch_state, _ = greedy_max(objective, scalarizer, BUDGET)
    batch_elapsed = time.perf_counter() - start

    speedup = per_item_elapsed / batch_elapsed if batch_elapsed > 0 else float("inf")
    return {
        "bench": "batch_oracle",
        "seed": SEED,
        "instance": {
            "problem": "facility-location",
            "num_users": NUM_USERS,
            "num_facilities": NUM_FACILITIES,
            "num_groups": NUM_GROUPS,
            "budget": BUDGET,
        },
        "per_item": {
            "wall_time_s": per_item_elapsed,
            "oracle_calls": per_item_calls,
            "batch_oracle_calls": 0,
        },
        "batch": {
            "wall_time_s": batch_elapsed,
            "oracle_calls": objective.oracle_calls,
            "batch_oracle_calls": objective.batch_oracle_calls,
        },
        "speedup": speedup,
        "identical_solutions": tuple(per_item_solution)
        == tuple(batch_state.solution),
        "solution": list(batch_state.solution),
    }


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_batch_oracle.json"
    json_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        "Batch oracle vs per-item oracle (plain greedy, facility location, "
        f"n={NUM_FACILITIES}, m={NUM_USERS}, k={BUDGET})",
        f"  per-item: {payload['per_item']['wall_time_s']:.3f}s  "
        f"({payload['per_item']['oracle_calls']} oracle calls)",
        f"  batch:    {payload['batch']['wall_time_s']:.3f}s  "
        f"({payload['batch']['oracle_calls']} oracle calls in "
        f"{payload['batch']['batch_oracle_calls']} batches)",
        f"  speedup:  {payload['speedup']:.1f}x   identical solutions: "
        f"{payload['identical_solutions']}",
        f"  [json written to {json_path}]",
    ]
    record("batch_oracle", "\n".join(lines))


def bench_batch_oracle(benchmark) -> None:
    payload = run_once(benchmark, _measure)
    _report(payload)
    assert payload["identical_solutions"], (
        "batch greedy diverged from the per-item reference"
    )
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"batch speedup {payload['speedup']:.2f}x below {MIN_SPEEDUP}x"
    )


def main() -> int:
    payload = _measure()
    _report(payload)
    if not payload["identical_solutions"]:
        print("FAIL: batch greedy diverged from the per-item reference")
        return 1
    if payload["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {payload['speedup']:.2f}x < {MIN_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
