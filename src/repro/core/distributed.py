"""Two-round distributed greedy (GreeDi) [Mirzasoleiman et al. 2016].

The related-work section lists the distributed setting among those the
greedy subroutine generalises to. GreeDi is the standard two-round
scheme:

1. partition the ground set across ``num_machines`` workers;
2. each worker greedily solves its shard for a size-``k`` solution;
3. a reducer greedily re-solves on the union of the shard solutions;
4. return the best of the reducer solution and every shard solution.

For monotone submodular objectives the result is
``(1 - 1/e)^2 / min(sqrt(k), num_machines)``-approximate in the
adversarial-partition worst case and near-greedy in practice with random
partitions. Shard solves run as genuinely independent workers when
``workers > 1``: each machine's greedy executes against its own copy of
the objective on the persistent worker pool
(:func:`repro.utils.parallel.parallel_map`; ``exec_backend`` picks
thread/process/serial), falling back to an in-process loop whenever
:func:`repro.utils.parallel.pool_width` resolves to 1. Shard greedy is
deterministic, so serial and parallel execution return bitwise-identical
solutions, and oracle-call counts faithfully reflect per-machine work
via ``extra['machine_calls']`` either way (worker call deltas are folded
back into the parent's counters). ``extra['workers_used']`` records how
many pool workers actually ran.

BSM hook: :func:`distributed_tsgreedy_stage2` lets BSM-TSGreedy swap its
offline utility-greedy subroutine for a distributed one, which is the
natural recipe when the item universe does not fit one machine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.functions import (
    AverageUtility,
    GroupedObjective,
    ObjectiveState,
    Scalarizer,
)
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.utils.parallel import WorkerContext, parallel_map, pool_width
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_positive_int


def partition_items(
    num_items: int,
    num_machines: int,
    *,
    seed: SeedLike = None,
) -> list[np.ndarray]:
    """Random balanced partition of ``0..n-1`` into ``num_machines`` shards.

    Random assignment is the partition GreeDi's average-case analysis
    assumes; shards differ in size by at most one.
    """
    check_positive_int(num_items, "num_items")
    check_positive_int(num_machines, "num_machines")
    if num_machines > num_items:
        raise ValueError(
            f"cannot split {num_items} items across {num_machines} machines"
        )
    rng = as_generator(seed)
    order = rng.permutation(num_items)
    return [np.sort(shard) for shard in np.array_split(order, num_machines)]


def _shard_solve(
    ctx: WorkerContext, shard: np.ndarray
) -> tuple[ObjectiveState, int, int]:
    """Worker: one machine's greedy solve on its shard.

    Runs on the worker's own copy of the objective (delivered once per
    process via the pool payload); returns the selected state plus the
    oracle/batch-call deltas so the parent can fold the work back into
    its own counters.
    """
    objective, scal, k = ctx.payload
    before = objective.oracle_calls
    before_batch = objective.batch_oracle_calls
    state, _ = greedy_max(
        objective, scal, k, candidates=shard.tolist()
    )
    return (
        state,
        objective.oracle_calls - before,
        objective.batch_oracle_calls - before_batch,
    )


def greedi(
    objective: GroupedObjective,
    k: int,
    *,
    num_machines: int = 4,
    scalarizer: Optional[Scalarizer] = None,
    shards: Optional[Sequence[Sequence[int]]] = None,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    exec_backend: Optional[str] = None,
) -> SolverResult:
    """Run the two-round GreeDi scheme on a grouped objective.

    Parameters
    ----------
    num_machines:
        Number of logical workers (ignored when ``shards`` is given).
    shards:
        Explicit ground-set partition, for callers that control data
        placement; must cover disjoint item subsets.
    scalarizer:
        Scalar view to maximise (defaults to the utility objective
        ``f``; pass a truncated surrogate to distribute a cover stage).
    workers:
        Pool workers to spread the shard solves over (capped at the
        shard count). ``None``/``0``/``1`` solve shards in-process;
        solutions are bitwise-identical either way because shard greedy
        is deterministic.
    exec_backend:
        Pool flavour for the shard solves — ``"thread"`` (default),
        ``"process"``, or ``"serial"``; see
        :mod:`repro.utils.parallel`.

    Returns
    -------
    SolverResult
        ``extra`` carries ``machine_calls`` (per-shard oracle work),
        ``merge_calls``, ``winner`` ("merge" or ``"machine:<i>"``), and
        ``workers_used`` (processes that actually ran the shards).
    """
    check_positive_int(k, "k")
    scal = scalarizer or AverageUtility()
    if shards is None:
        parts = partition_items(
            objective.num_items, num_machines, seed=seed
        )
    else:
        parts = [np.asarray(sorted(s), dtype=np.int64) for s in shards]
        flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        if flat.size != np.unique(flat).size:
            raise ValueError("shards must be disjoint")
    weights = objective.group_weights
    # pool_width is parallel_map's own fallback rule: the counter
    # fold-back below must know whether the shards ran on copies (pool)
    # or on this very objective (in-process loop, which advances the
    # counters itself).
    workers_used = pool_width(workers, len(parts), backend=exec_backend)
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        # Each shard solve (and the merge below) scores its candidate
        # pool through the batched greedy loops — one gains_batch call
        # per round rather than one oracle round-trip per candidate.
        # With workers > 1 the shards run in separate processes against
        # per-worker objective copies; the call deltas are folded back
        # into this objective so accounting matches the in-process loop.
        shard_results = parallel_map(
            _shard_solve,
            parts,
            workers=workers_used,
            payload=(objective, scal, k),
            backend=exec_backend,
        )
        machine_states: list[ObjectiveState] = []
        machine_calls: list[int] = []
        for state, calls_delta, batch_delta in shard_results:
            machine_states.append(state)
            machine_calls.append(calls_delta)
            if workers_used > 1:
                objective.oracle_calls += calls_delta
                objective.batch_oracle_calls += batch_delta
        union = sorted(
            {item for state in machine_states for item in state.selected}
        )
        before = objective.oracle_calls
        merged, _ = greedy_max(objective, scal, k, candidates=union)
        merge_calls = objective.oracle_calls - before

        # Fold every contender's group values in one multi-state pass;
        # the strict-improvement scan keeps the original tie-breaking
        # (merge wins ties, then the lowest machine index).
        contenders = [merged] + machine_states
        values = scal.value_batch(
            np.stack([s.group_values for s in contenders]), weights
        )
        best_state = merged
        winner = "merge"
        best_value = float(values[0])
        for index, state in enumerate(machine_states):
            value = float(values[index + 1])
            if value > best_value:
                best_value = value
                best_state = state
                winner = f"machine:{index}"
    return make_result(
        "GreeDi",
        objective,
        best_state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        extra={
            "num_machines": len(parts),
            "machine_calls": machine_calls,
            "merge_calls": merge_calls,
            "winner": winner,
            "workers_used": workers_used,
        },
    )


def distributed_tsgreedy_stage2(
    objective: GroupedObjective,
    k: int,
    stage1_state: ObjectiveState,
    *,
    num_machines: int = 4,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    exec_backend: Optional[str] = None,
) -> ObjectiveState:
    """Fill a partial BSM-TSGreedy solution using GreeDi item order.

    Stage 2 of Algorithm 1 appends items from the utility-greedy solution
    ``S_f``; here ``S_f`` is produced by :func:`greedi` instead, so the
    whole pipeline runs when no single machine can sweep the full ground
    set. The fill preserves the stage-1 items (hence the fairness cover)
    and only tops up to size ``k``.
    """
    check_positive_int(k, "k")
    remaining = k - stage1_state.size
    if remaining <= 0:
        return stage1_state
    flat = greedi(
        objective,
        k,
        num_machines=num_machines,
        seed=seed,
        workers=workers,
        exec_backend=exec_backend,
    )
    state = objective.copy_state(stage1_state)
    for item in flat.solution:
        if state.size >= k:
            break
        if not state.in_solution[item]:
            objective.add(state, item)
    return state
