"""Micro-bench — the greedy loop against the two loops it replaced.

``greedy_max`` runs one lazy greedy loop over NumPy arrays: it rescores
stale upper bounds in batches that double until the round's winner is
settled. It replaced two loops, frozen here as references: batched
plain greedy (rescore the whole pool every round) and CELF (a Python
heap that rescores one item at a time). Plain greedy wins on small
pools, where per-item Python round-trips dominate; CELF wins where few
items need rescoring per round. The gate is that the one loop is never
much slower than the better of the two on any configuration.

Each configuration runs the three loops interleaved, ``REPEATS`` times,
and compares median wall times. All three must select the identical
solution. Emits ``benchmarks/results/BENCH_greedy.json``; its
``speedup`` leaves (best reference time over the loop's time) are gated
by ``check_regression.py``. Run standalone
(``PYTHONPATH=src python benchmarks/bench_greedy.py``) or through
pytest-benchmark.
"""

from __future__ import annotations

import heapq
import json
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_greedy.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, SEED, record, run_once
from repro.core.functions import (
    AverageUtility,
    GroupedObjective,
    ObjectiveState,
    Scalarizer,
)
from repro.core.greedy import GAIN_EPS, _pool_gains, _scan_best, greedy_max
from repro.datasets.registry import load_dataset
from repro.problems.influence import InfluenceObjective

#: (dataset, k). Influence datasets sample ``RR_SETS`` RR sets.
CONFIGS = (
    ("rand-mc-c2", 3),
    ("rand-mc-c2", 10),
    ("rand-fl-c2", 3),
    ("rand-fl-c2", 10),
    ("rec-latent-c2", 10),
    ("dblp-im", 10),
)
RR_SETS = 20_000
REPEATS = 21

#: The loop may take at most this multiple of the faster reference's
#: median time on every configuration.
MAX_SLOWDOWN = 1.1


# ---------------------------------------------------------------------------
# Frozen references: the two loops greedy_max used to choose between
# ---------------------------------------------------------------------------
def reference_plain(
    objective: GroupedObjective, scalarizer: Scalarizer, budget: int
) -> ObjectiveState:
    """Batched plain greedy: score every remaining item every round."""
    state = objective.new_state()
    weights = objective.group_weights
    remaining = np.arange(objective.num_items, dtype=np.int64)
    for _ in range(budget):
        if remaining.size == 0:
            break
        gains = _pool_gains(objective, scalarizer, state, remaining, weights)
        best_item, _ = _scan_best(remaining, gains)
        if best_item < 0:
            break
        objective.add(state, best_item)
        remaining = remaining[remaining != best_item]
    return state


def reference_celf(
    objective: GroupedObjective, scalarizer: Scalarizer, budget: int
) -> ObjectiveState:
    """CELF: a heap of stale bounds, rescored one item at a time.

    Round 0 scores the pool in one batch; a tie band at the top of the
    heap is settled by the lowest-id scan over its fresh contenders.
    """
    state = objective.new_state()
    weights = objective.group_weights
    cand = np.arange(objective.num_items, dtype=np.int64)
    seed_gains = _pool_gains(objective, scalarizer, state, cand, weights)
    heap = [(-float(g), int(v)) for v, g in zip(cand, seed_gains)]
    heapq.heapify(heap)
    fresh = {int(v): 0 for v in cand}
    round_no = 0

    def rescore(item: int) -> None:
        gain = scalarizer.gain(
            state.group_values, objective.gains(state, item), weights
        )
        fresh[item] = round_no
        heapq.heappush(heap, (-gain, item))

    while round_no < budget and heap:
        neg_ub, item = heapq.heappop(heap)
        if state.in_solution[item]:
            continue
        if fresh[item] != round_no:
            rescore(item)
            continue
        gain = -neg_ub
        if gain <= GAIN_EPS:
            break
        contenders = [(item, gain)]
        while heap and -heap[0][0] > gain - GAIN_EPS:
            neg_ub2, item2 = heapq.heappop(heap)
            if state.in_solution[item2]:
                continue
            if fresh[item2] != round_no:
                rescore(item2)
                continue
            contenders.append((item2, -neg_ub2))
        contenders.sort()
        winner, winner_gain = -1, 0.0
        for cont_item, cont_gain in contenders:
            if cont_gain > winner_gain + GAIN_EPS:
                winner, winner_gain = cont_item, cont_gain
        for cont_item, cont_gain in contenders:
            if cont_item != winner:
                heapq.heappush(heap, (-cont_gain, cont_item))
        objective.add(state, winner)
        round_no += 1
    return state


def _library(
    objective: GroupedObjective, scalarizer: Scalarizer, budget: int
) -> ObjectiveState:
    state, _ = greedy_max(objective, scalarizer, budget)
    return state


LOOPS: dict[str, Callable[..., ObjectiveState]] = {
    "plain": reference_plain,
    "celf": reference_celf,
    "lazy": _library,
}


def _objective(name: str) -> GroupedObjective:
    data = load_dataset(name, seed=SEED)
    if data.objective is not None:
        return data.objective
    return InfluenceObjective.from_graph(data.graph, RR_SETS, seed=SEED)


def _measure_config(name: str, k: int) -> dict:
    objective = _objective(name)
    scalarizer = AverageUtility()
    times: dict[str, list[float]] = {loop: [] for loop in LOOPS}
    calls: dict[str, dict] = {}
    solutions: dict[str, list[int]] = {}
    for _ in range(REPEATS):
        for loop, run in LOOPS.items():
            objective.reset_counter()
            start = time.perf_counter()
            state = run(objective, scalarizer, k)
            times[loop].append(time.perf_counter() - start)
            solutions[loop] = [int(v) for v in state.solution]
            calls[loop] = {
                "oracle_calls": objective.oracle_calls,
                "batch_oracle_calls": objective.batch_oracle_calls,
            }
    medians = {loop: 1e3 * float(np.median(ts)) for loop, ts in times.items()}
    best_reference = min(medians["plain"], medians["celf"])
    return {
        "dataset": name,
        "k": k,
        "num_items": objective.num_items,
        "median_ms": medians,
        "calls": calls,
        "speedup": best_reference / medians["lazy"],
        "identical_solutions": solutions["lazy"] == solutions["plain"]
        == solutions["celf"],
        "solution": solutions["lazy"],
    }


def _measure() -> dict:
    configs = {
        f"{name}/k={k}": _measure_config(name, k) for name, k in CONFIGS
    }
    return {
        "bench": "greedy",
        "seed": SEED,
        "repeats": REPEATS,
        "rr_sets": RR_SETS,
        "max_slowdown": MAX_SLOWDOWN,
        "configs": configs,
    }


def _check(payload: dict) -> list[str]:
    failures = []
    for key, row in payload["configs"].items():
        if not row["identical_solutions"]:
            failures.append(f"{key}: the loops selected different solutions")
        if row["speedup"] < 1.0 / MAX_SLOWDOWN:
            failures.append(
                f"{key}: {row['median_ms']['lazy']:.2f} ms is more than "
                f"{MAX_SLOWDOWN}x the faster reference "
                f"({min(row['median_ms']['plain'], row['median_ms']['celf']):.2f} ms)"
            )
    return failures


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_greedy.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    lines = [
        f"Greedy loop vs frozen plain/CELF (median of {payload['repeats']} "
        "interleaved runs, ms; speedup = faster reference / lazy)",
        f"  {'config':22s} {'plain':>8s} {'celf':>8s} {'lazy':>8s} "
        f"{'speedup':>8s}  batches  items scored",
    ]
    for key, row in payload["configs"].items():
        ms = row["median_ms"]
        lazy_calls = row["calls"]["lazy"]
        lines.append(
            f"  {key:22s} {ms['plain']:8.2f} {ms['celf']:8.2f} "
            f"{ms['lazy']:8.2f} {row['speedup']:8.2f}  "
            f"{lazy_calls['batch_oracle_calls']:7d}  "
            f"{lazy_calls['oracle_calls']}"
        )
    lines.append(f"  [json written to {json_path}]")
    record("greedy", "\n".join(lines))


def bench_greedy(benchmark) -> None:
    payload = run_once(benchmark, _measure)
    _report(payload)
    failures = _check(payload)
    assert not failures, "; ".join(failures)


def main() -> int:
    payload = _measure()
    _report(payload)
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
