"""Percentiles under the benchmark's reporting rule.

A percentile is only worth reporting when enough samples lie beyond it:
the rule here is at least :data:`MIN_BEYOND` samples strictly above the
reported rank.  Percentiles use the nearest-rank definition, so every
reported value is a sample that was actually measured.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # Round first so 0.9 * 100 reads as 90, not 90.00000000000001.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``samples``."""
    return sorted(samples)[_rank(len(samples), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q`` quantile."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return samples_beyond(n, q) >= MIN_BEYOND
