"""Order statistics the benchmark reports.

A tail latency is reported at the highest percentile that still has at
least ``MIN_BEYOND`` samples above it, together with the sample count, so a
tail figure never rests on a handful of observations.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def nearest_rank(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile: (value, number of samples strictly beyond it).

    The value is the k-th smallest sample with k = ceil(pct/100 * n), so the
    samples beyond it are the n - k larger ranks.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no values")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    k = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return float(ordered[k - 1]), n - k


def tail_percentile(values, candidates=TAIL_CANDIDATES,
                    min_beyond: int = MIN_BEYOND):
    """Highest candidate percentile with at least ``min_beyond`` samples beyond.

    Returns (pct, value, n) with n the sample count, or None when even the
    lowest candidate lacks ``min_beyond`` samples beyond it.
    """
    n = len(values)
    for pct in sorted(candidates, reverse=True):
        if n == 0:
            break
        value, beyond = nearest_rank(values, pct)
        if beyond >= min_beyond:
            return pct, value, n
    return None


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
