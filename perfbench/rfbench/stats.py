"""Sample statistics with the benchmark's percentile rule.

A percentile is only worth reporting when enough samples lie beyond it:
a p99 taken from a handful of samples is just the maximum, and moves
with every outlier. The rule used everywhere here is the nearest-rank
percentile, reported only when at least :data:`MIN_TAIL` samples rank
strictly above it; callers print the sample count beside the value.
"""

from __future__ import annotations

import math

__all__ = ["MIN_TAIL", "percentile"]

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` (0–100) among ``n``."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    # Round away float noise first: 0.99 * 1000 is 989.9999999999999.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(samples, q: float) -> float | None:
    """Nearest-rank percentile ``q`` of ``samples``, or ``None``.

    ``None`` means fewer than :data:`MIN_TAIL` samples lie beyond the
    percentile, so the sample cannot support it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = _rank(q, n)
    if n - rank < MIN_TAIL:
        return None
    return float(ordered[rank - 1])
