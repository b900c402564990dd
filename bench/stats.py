"""Order statistics shared by the runner, the tracer and the comparison."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to count as a tail.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` of the highest percentile with ``MIN_BEYOND`` samples above it.

    The percentile comes from :data:`TAIL_LADDER` and is nearest-rank.  When
    not even the median has ``MIN_BEYOND`` samples above it, the median is
    returned (``pct`` = 50): the sample is too small to show a tail.
    """
    ordered: List[float] = sorted(values)
    if not ordered:
        return 50.0, 0.0
    count = len(ordered)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count - math.ceil(pct / 100.0 * count) >= MIN_BEYOND:
            chosen = pct
    return chosen, percentile(ordered, chosen)
