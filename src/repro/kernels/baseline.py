"""The PR 3 reference kernels, verbatim.

These are the original hot-loop implementations that every other kernel
set is bitwise-verified against (``tests/test_kernels.py``) and that the
``kernel_serial`` benchmark metric measures speedups over. They moved
here from :mod:`repro.influence.engine` and
:mod:`repro.utils.csr` unchanged — the engine now dispatches through
:func:`repro.kernels.get_kernel` — so "baseline" stays callable no
matter how the optimized sets evolve.
"""

from __future__ import annotations

import numpy as np

from repro.utils.csr import (
    batch_group_counts,
    gather_csr_slices,
    merge_sorted_disjoint,
)

Adjacency = tuple[np.ndarray, np.ndarray, np.ndarray]

#: How many sorted per-level key arrays the sparse reachability chunk
#: accumulates before merging them into its base visited array. Bounds
#: the per-arrival membership probes (one ``searchsorted`` per pending
#: level) while amortizing the O(reached) merge over many levels.
SPARSE_MERGE_EVERY = 16


def reachability_chunk(
    adjacency: Adjacency,
    start_keys: np.ndarray,
    num_instances: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """All ``instance * n + node`` keys reachable from ``start_keys``.

    One level-synchronous BFS over every instance at once. Every frontier
    edge draws its coin from a single ``rng.random`` call per level (the
    scalar BFS draws per frontier *node*; per level is the batched
    equivalent — the marginal law of each edge coin is identical).
    """
    indptr, indices, probs = adjacency
    n = indptr.size - 1
    visited = np.zeros(num_instances * n, dtype=bool)
    start_keys = np.unique(start_keys)
    visited[start_keys] = True
    reached = [start_keys]
    frontier = start_keys
    while frontier.size:
        positions, owners = gather_csr_slices(indptr, frontier % n)
        if positions.size == 0:
            break
        live = rng.random(positions.size) < probs[positions]
        keys = (frontier // n)[owners[live]] * n + indices[positions[live]]
        keys = keys[~visited[keys]]
        if keys.size == 0:
            break
        # np.unique both dedups same-level arrivals and sorts the new
        # frontier by (instance, node), keeping expansion order canonical.
        keys = np.unique(keys)
        visited[keys] = True
        reached.append(keys)
        frontier = keys
    return np.concatenate(reached) if len(reached) > 1 else reached[0]


def member_sorted(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``keys`` in the sorted array ``table``."""
    if table.size == 0:
        return np.zeros(keys.size, dtype=bool)
    idx = np.searchsorted(table, keys)
    valid = idx < table.size
    out = np.zeros(keys.size, dtype=bool)
    out[valid] = table[idx[valid]] == keys[valid]
    return out


def reachability_chunk_sparse(
    adjacency: Adjacency,
    start_keys: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """:func:`reachability_chunk` without the dense visited buffer.

    The dense chunk allocates ``num_instances * n`` bools, which caps the
    instances per chunk at ``max_keys // n`` — at a million nodes that is
    a few dozen instances and the per-level Python overhead dominates.
    This variant tracks visited keys as sorted arrays (a merged base plus
    up to :data:`SPARSE_MERGE_EVERY` pending level arrays, probed with
    ``searchsorted``), so memory is O(reached keys) and the instance
    count per chunk is free. The frontier sequence — and therefore every
    ``rng`` draw — is bit-for-bit identical to the dense chunk on the
    same inputs: both filter arrivals against exactly the keys reached on
    earlier levels before the ``np.unique`` dedup.
    """
    indptr, indices, probs = adjacency
    n = indptr.size - 1
    start_keys = np.unique(start_keys)
    reached = [start_keys]
    base = start_keys
    pending: list[np.ndarray] = []
    frontier = start_keys
    while frontier.size:
        positions, owners = gather_csr_slices(indptr, frontier % n)
        if positions.size == 0:
            break
        live = rng.random(positions.size) < probs[positions]
        keys = (frontier // n)[owners[live]] * n + indices[positions[live]]
        if keys.size == 0:
            break
        seen = member_sorted(base, keys)
        for level in pending:
            seen |= member_sorted(level, keys)
        keys = keys[~seen]
        if keys.size == 0:
            break
        keys = np.unique(keys)
        reached.append(keys)
        pending.append(keys)
        frontier = keys
        if len(pending) >= SPARSE_MERGE_EVERY:
            merged = pending[0]
            for level in pending[1:]:
                merged = merge_sorted_disjoint(merged, level)
            base = merge_sorted_disjoint(base, merged)
            pending = []
    return np.concatenate(reached) if len(reached) > 1 else reached[0]


#: CSR coverage counting — the reference *is* the shared helper in
#: :mod:`repro.utils.csr` (one flat gather + one bincount pass).
group_counts = batch_group_counts


def pack_chunk_keys(
    keys: np.ndarray, num_instances: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack one chunk's reached keys into ``(set_indptr, set_indices)``.

    The PR 3 pack: int64 divmod plus a stable argsort on the instance
    ids, so each set's members land in ascending node order within
    their slice.
    """
    sample_ids, nodes = keys // n, keys % n
    order = np.argsort(sample_ids, kind="stable")
    counts = np.bincount(sample_ids, minlength=num_instances)
    set_indptr = np.zeros(num_instances + 1, dtype=np.int64)
    np.cumsum(counts, out=set_indptr[1:])
    return set_indptr, nodes[order]


def gains_rescore(
    ids: np.ndarray,
    covered: np.ndarray,
    labels: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-group count of fresh (uncovered) RR sets among ``ids``.

    The single-item re-score: ``ids`` are the RR-set ids containing
    the candidate, ``covered`` the current solution's hit flags,
    ``labels`` every set's root group. Returns int64 counts of shape
    ``(num_groups,)`` — the numerator of the gain vector.
    """
    fresh = ids[~covered[ids]]
    return np.bincount(labels[fresh], minlength=num_groups)
