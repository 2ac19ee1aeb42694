"""Order statistics used by every report in the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(n * q) - 1``-th smallest value.

    0.0 for an empty sample. ``n * q`` is rounded first so that float
    error (``0.57 * 100 == 56.99999999999999``) cannot shift the rank.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(round(len(ordered) * q, 9)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
