"""Percentiles and spreads, under the benchmark's reporting rules.

* A tail percentile is reported only when at least ten samples lie
  beyond it: p99 needs 1000 samples, p90 needs 100.  Below that the
  tail is noise, and :func:`tail_percentile` refuses it.
* Percentiles are nearest-rank: the value at 1-based rank
  ``ceil(q/100 * n)`` of the sorted sample, so every reported value is
  one that was measured.
* A run's summary of a metric is its median with the first and third
  quartiles as :func:`statistics.quantiles` gives them.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` in a sample of ``n``."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # Round away float noise (0.99 * 1000 is not exactly 990).
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - _rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (any sample size; use for medians)."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def tail_percentile(values: Sequence[float], q: float) -> float:
    """A tail percentile, refused unless :data:`TAIL_SAMPLES` lie beyond it."""
    if beyond(len(values), q) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only "
            f"{beyond(len(values), q)} beyond it (need {TAIL_SAMPLES})")
    return percentile(values, q)


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and count of one metric across repetitions."""
    if not values:
        raise ValueError("no samples")
    data = [float(value) for value in values]
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3,
            "n": len(data)}
