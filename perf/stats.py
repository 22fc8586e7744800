"""Order statistics used by the benchmark reports and by ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Candidate tail percentiles, ascending. The report names the highest one
#: that still has ``MIN_BEYOND`` samples above it.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 97.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it."""
    supported = [q for q in PERCENTILE_LADDER if count * (100.0 - q) / 100.0 >= MIN_BEYOND]
    return supported[-1] if supported else None


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
