"""Greedy maximisation of scalarized grouped objectives.

:func:`greedy_max` is lazy greedy, the loop the paper runs inside every
algorithm: Minoux's accelerated greedy [Minoux 1978], known as CELF
[Leskovec et al. 2007]. It returns plain greedy's ``(1 - 1/e)``
selection [Nemhauser et al. 1978] for monotone submodular maximisation
under a cardinality constraint. With ``stop_value`` it is also the
*greedy submodular cover* loop (Wolsey's greedy, see
:mod:`repro.core.cover`), so Saturate, greedy cover and both BSM
algorithms all run it.

The loop keeps every candidate's last gain as an upper bound (by
submodularity a stale gain only overestimates the current one), in two
arrays sorted by bound. Round 0 scores the whole pool in one
:meth:`GroupedObjective.gains_batch` call. Each later round rescores the
stale items best bound first, in batches that double, until no stale
bound exceeds the best fresh gain minus ``GAIN_EPS``. A batch as large
as the pool is plain greedy; a batch of one is CELF. The first batch of
a round is half the last batch of the round before, and never below
``_MIN_BATCH``, since a batch of a few dozen items costs about as much
as a batch of one.

Selection rule: among the fresh items within ``GAIN_EPS`` of the best
gain, the sequential ``gain > best + GAIN_EPS`` scan in ascending id
order picks the winner (ties go to the lowest id). This is CELF's rule;
plain greedy's scan over the whole pool agrees with it unless gains
form a chain of near-ties spaced under ``GAIN_EPS`` apart.

``oracle_calls`` counts items scored (``gains_batch`` adds one per
row), so it stays comparable with per-item loops; ``batch_oracle_calls``
counts the batches: one for round 0 plus at most ``ceil(log2 n)`` per
later round.

The module also keeps two approximate accelerators that score sampled
or thresholded pools in batches: stochastic greedy [Mirzasoleiman et
al. 2015], ``(1 - 1/e - eps)`` in expectation with ``O(n log(1/eps))``
oracle calls, and descending-thresholds greedy [Badanidiyuru & Vondrák
2014].
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.functions import GroupedObjective, ObjectiveState, Scalarizer
from repro.core.result import GreedyStep
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Gains below this are treated as zero (guards against float jitter
#: re-ordering items whose true marginal gain is identical).
GAIN_EPS = 1e-12

#: Smallest rescoring batch, and the factor by which a round's last
#: batch size shrinks to become the next round's first.
_MIN_BATCH = 32
_SHRINK = 2


def greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    state: Optional[ObjectiveState] = None,
    candidates: Optional[Iterable[int]] = None,
    stop_value: Optional[float] = None,
    tolerance: float = 1e-12,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Greedily add up to ``budget`` items maximising ``scalarizer``.

    Lazy greedy: each round rescores only the stale items whose upper
    bound could still reach the round's winner (see the module
    docstring). Correct for submodular scalarizations, where a stale
    gain only overestimates the current one.

    Parameters
    ----------
    objective, scalarizer:
        The grouped oracle and the scalar view being maximised.
    budget:
        Maximum number of items to *add* (on top of any items already in
        ``state``).
    state:
        Optional warm-start state; mutated in place when given.
    candidates:
        Ground-set restriction (defaults to all items). Order and
        duplicates do not matter.
    stop_value:
        Stop as soon as the scalar value reaches this target (submodular
        cover mode). ``None`` runs to the budget.

    Returns
    -------
    (state, steps):
        The final state and the per-iteration trace.
    """
    check_positive_int(budget, "budget")
    if state is None:
        state = objective.new_state()
    steps: list[GreedyStep] = []
    weights = objective.group_weights
    value = scalarizer.value(state.group_values, weights)
    if stop_value is not None and value >= stop_value - tolerance:
        return state, steps
    # keys are the negated gains of items. items[:fresh] hold this
    # round's exact gains (unsorted); items[fresh:] hold stale bounds,
    # sorted best first, so searchsorted finds "bound > floor". Round 0
    # scores the whole pool in one call.
    items = _candidate_pool(state, candidates)
    if items.size == 0:
        return state, steps
    keys = -_pool_gains(objective, scalarizer, state, items, weights)
    best, fresh = float(-keys.min()), items.size
    batch, pick = _MIN_BATCH, -1
    for _ in range(budget):
        if pick >= 0:
            # Next round: the last round's gains become stale bounds.
            items, keys = _merge_fresh(items, keys, fresh, pick)
            batch = max(_MIN_BATCH, batch // _SHRINK)
            best, fresh = -np.inf, 0
        # Rescore stale items best bound first, in batches that double,
        # until no stale bound exceeds the floor. items[:fresh] then
        # hold exact gains, and no stale item can beat
        # max(best - GAIN_EPS, GAIN_EPS).
        while fresh < items.size:
            floor = max(best - GAIN_EPS, GAIN_EPS)
            end = fresh + int(keys[fresh:fresh + batch].searchsorted(-floor))
            if end == fresh:
                break
            gains = _pool_gains(
                objective, scalarizer, state, items[fresh:end], weights
            )
            keys[fresh:end] = -gains
            best = max(best, float(gains.max()))
            if end - fresh == batch:
                batch *= 2
            fresh = end
        if best <= GAIN_EPS:
            break  # no item improves the objective: greedy is saturated
        # Winner: the sequential lowest-id scan over the fresh band (the
        # gains within GAIN_EPS of the best), as the per-item loops did.
        band = np.flatnonzero(keys[:fresh] < GAIN_EPS - best)
        if band.size == 1:
            pick, gain = int(band[0]), best
        else:
            band = band[items[band].argsort()]
            pick, gain = _scan_best(band, -keys[band])
        item = int(items[pick])
        objective.add(state, item)
        value = scalarizer.value(state.group_values, weights)
        steps.append(GreedyStep(item, gain, value))
        if stop_value is not None and value >= stop_value - tolerance:
            break
    return state, steps


def _candidate_pool(
    state: ObjectiveState, candidates: Optional[Iterable[int]]
) -> np.ndarray:
    """Sorted, de-duplicated candidate ids not yet in ``state``."""
    if candidates is None:
        return np.flatnonzero(~state.in_solution).astype(np.int64)
    pool = np.unique(np.fromiter(candidates, dtype=np.int64))
    return pool[~state.in_solution[pool]]


def _merge_fresh(
    items: np.ndarray, keys: np.ndarray, fresh: int, pick: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rescored head back into the stale tail.

    Drops the winner at ``pick`` and every head item whose gain is at
    most ``GAIN_EPS``: bounds only fall, so it can never win again. The
    tail is one sorted run, so the stable (merge) sort costs
    O(head log head + tail).
    """
    keys[pick] = 0.0
    head = np.flatnonzero(keys[:fresh] < -GAIN_EPS)
    merged = np.concatenate((keys[head], keys[fresh:]))
    perm = merged.argsort(kind="stable")
    return np.concatenate((items[head], items[fresh:]))[perm], merged[perm]


def _pool_gains(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    state: ObjectiveState,
    items: Sequence[int],
    weights: np.ndarray,
) -> np.ndarray:
    """Scalar marginal gain of every item in ``items`` — one batched call."""
    gains_matrix = objective.gains_batch(state, items)
    return scalarizer.gain_batch(state.group_values, gains_matrix, weights)


#: Vectorized record-chain jumps before _scan_best falls back to the
#: per-entry loop. Random-order gains need ~ln(n) jumps, so the cap only
#: triggers on adversarially sorted pools.
_SCAN_MAX_JUMPS = 64


def _scan_best(items: Sequence[int], gains: np.ndarray) -> tuple[int, float]:
    """Best (item, gain) under the per-item loops' selection rule.

    Replays the sequential ``gain > best + GAIN_EPS`` scan over the
    batched gains so ties (and near-ties inside the epsilon band) break
    toward the earliest item exactly as the per-item loops did.

    The replay is a vectorized *record chain*: the sequential scan only
    changes state at indices where the gain beats the current record by
    more than ``GAIN_EPS``, and the next such index is by definition the
    first position after the current record with
    ``gain > best + GAIN_EPS`` — one ``argmax`` over the tail per jump.
    A uniformly shuffled pool sets ``O(log n)`` records, so the expected
    cost is ``O(n log n)`` flat NumPy passes instead of ``n`` Python
    iterations; a pathologically ascending pool falls back to the exact
    per-entry loop after :data:`_SCAN_MAX_JUMPS` jumps.
    """
    gains = np.asarray(gains)
    best_idx, best_gain = -1, 0.0
    pos = 0
    for _ in range(_SCAN_MAX_JUMPS):
        if pos >= gains.size:
            break
        rel = int(np.argmax(gains[pos:] > best_gain + GAIN_EPS))
        if not gains[pos + rel] > best_gain + GAIN_EPS:
            pos = gains.size
            break
        best_idx = pos + rel
        best_gain = float(gains[best_idx])
        pos = best_idx + 1
    else:
        # Jump cap hit: finish the remaining tail sequentially (exact
        # same rule, bounded Python work).
        for idx in np.nonzero(gains[pos:] > best_gain + GAIN_EPS)[0] + pos:
            gain = float(gains[idx])
            if gain > best_gain + GAIN_EPS:
                best_idx, best_gain = int(idx), gain
    if best_idx < 0:
        return -1, 0.0
    return int(items[best_idx]), best_gain


def stochastic_greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    epsilon: float = 0.1,
    candidates: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Stochastic ("lazier than lazy") greedy.

    Each round evaluates a uniform random subset of ``(n/k) ln(1/eps)``
    candidates only. Offered as the subsampling accelerator from the
    related-work discussion; the paper's headline experiments use lazy
    greedy.
    """
    check_positive_int(budget, "budget")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    rng = as_generator(seed)
    state = objective.new_state()
    pool = list(range(objective.num_items)) if candidates is None else [
        int(v) for v in candidates
    ]
    weights = objective.group_weights
    sample_size = max(
        1, int(np.ceil(len(pool) / budget * np.log(1.0 / epsilon)))
    )
    steps: list[GreedyStep] = []
    for _ in range(budget):
        available = [v for v in pool if not state.in_solution[v]]
        if not available:
            break
        size = min(sample_size, len(available))
        sample_idx = rng.choice(len(available), size=size, replace=False)
        # Keep the draw order: the per-item loop scanned the sample as
        # drawn, and _scan_best preserves that tie-breaking.
        sample = [available[int(idx)] for idx in sample_idx]
        gains = _pool_gains(objective, scalarizer, state, sample, weights)
        best_item, best_gain = _scan_best(sample, gains)
        if best_item < 0:
            continue  # the whole sample was worthless; resample next round
        objective.add(state, best_item)
        steps.append(
            GreedyStep(
                best_item,
                best_gain,
                scalarizer.value(state.group_values, weights),
            )
        )
    return state, steps


def threshold_greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    epsilon: float = 0.1,
    candidates: Optional[Iterable[int]] = None,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Descending-thresholds greedy [Badanidiyuru & Vondrák 2014].

    Sweeps thresholds ``d, d(1-eps), d(1-eps)^2, ...`` (``d`` = best
    singleton value) and adds any item whose current marginal gain meets
    the threshold. Each item is touched ``O(log(n/eps)/eps)`` times in
    total — independent of ``k`` — for a ``(1 - 1/e - eps)`` guarantee,
    making it the preferred accelerator when ``k`` is large and lazy
    greedy still rescores many items per round.

    Like lazy greedy, the batched sweep requires a *submodular* scalarization:
    after an add, items whose stale gain already missed the threshold are
    dropped for the rest of the sweep on the grounds that gains only
    decrease. Feeding a non-submodular scalarizer (e.g. ``MinUtility``)
    voids both the guarantee and the per-item-sweep equivalence.
    """
    check_positive_int(budget, "budget")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    state = objective.new_state()
    pool = list(range(objective.num_items)) if candidates is None else [
        int(v) for v in candidates
    ]
    weights = objective.group_weights
    best_singleton = 0.0
    if pool:
        empty = objective.new_state()
        singleton_gains = _pool_gains(
            objective, scalarizer, empty, pool, weights
        )
        best_singleton = max(0.0, float(singleton_gains.max()))
    steps: list[GreedyStep] = []
    if best_singleton <= 0:
        return state, steps
    threshold = best_singleton
    floor = epsilon / len(pool) * best_singleton
    while threshold >= floor and state.size < budget:
        # One batched scoring of the remaining pool per sweep. After an
        # add, submodularity says stale gains only overestimate: items
        # already below the threshold stay below (drop them without a
        # fresh call), while stale *hits* are rescored in the next batch
        # before being trusted — the adds are exactly those the per-item
        # sweep would have made.
        current = [v for v in pool if not state.in_solution[v]]
        while current and state.size < budget:
            gains = _pool_gains(objective, scalarizer, state, current, weights)
            hit_pos = np.nonzero(gains >= threshold)[0]
            if hit_pos.size == 0:
                break
            first = int(hit_pos[0])
            item = current[first]
            objective.add(state, item)
            steps.append(
                GreedyStep(
                    item,
                    float(gains[first]),
                    scalarizer.value(state.group_values, weights),
                )
            )
            current = [current[i] for i in hit_pos[1:]]
        threshold *= 1.0 - epsilon
    return state, steps
