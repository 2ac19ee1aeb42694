"""Shared low-level helpers used across the :mod:`repro` package.

The submodules deliberately stay dependency-free (numpy only) so that every
other subsystem — graphs, datasets, solvers — can import them without
creating cycles.
"""

from repro.utils.caching import (
    BoundedCache,
    CacheStats,
    estimate_nbytes,
    lru_bound,
)
from repro.utils.parallel import (
    SharedArrays,
    WorkerContext,
    WorkerPool,
    available_cpus,
    fork_available,
    get_pool,
    parallel_imap,
    parallel_map,
    pool_stats,
    resolve_backend,
    resolve_workers,
    shutdown_pools,
    spawn_seed_sequences,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability,
)

__all__ = [
    "BoundedCache",
    "CacheStats",
    "SharedArrays",
    "Timer",
    "WorkerContext",
    "WorkerPool",
    "as_generator",
    "available_cpus",
    "check_fraction",
    "check_non_negative",
    "check_positive_int",
    "check_probability",
    "estimate_nbytes",
    "fork_available",
    "get_pool",
    "lru_bound",
    "parallel_imap",
    "parallel_map",
    "pool_stats",
    "resolve_backend",
    "resolve_workers",
    "shutdown_pools",
    "spawn_generators",
    "spawn_seed_sequences",
]
