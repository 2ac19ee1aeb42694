"""Wall-clock timing helpers: a stopwatch for solver results and the
harness, and the one latency percentile every service report uses."""

from __future__ import annotations

import math
import time
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(n * q) - 1``-th smallest sample.

    0.0 for an empty sample; ``samples`` need not be sorted. ``n * q`` is
    rounded first so float error (``0.57 * 100 == 56.99999999999999``)
    cannot shift the rank. p99 of 50 samples is their maximum.

    >>> percentile([3.0, 1.0, 2.0], 0.5)
    2.0
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, math.ceil(round(len(ordered) * q, 9)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class Timer:
    """Context-manager stopwatch; re-entering *accumulates* elapsed time.

    Accumulation lets a solver time several phases with one timer and
    report their total.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    def running(self) -> bool:
        """Whether the timer is currently inside a ``with`` block."""
        return self._start is not None
