"""Order statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolated between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def per_kind_medians(kinds: Sequence[str], values: Sequence[float]
                     ) -> List[float]:
    """The median value of each kind, in first-seen order.

    A figure table or a sweep point repeats every pass; its median over
    the passes is its latency.  Percentiles over these medians are
    percentiles over operations, and a burst of host noise in one pass
    does not reach them.  Kinds that occur once keep their value.
    """
    groups: Dict[str, List[float]] = {}
    for kind, value in zip(kinds, values):
        groups.setdefault(kind, []).append(value)
    return [statistics.median(group) for group in groups.values()]
