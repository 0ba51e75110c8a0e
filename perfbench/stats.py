"""Percentiles and run-to-run spread for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples
    lie above the chosen rank: such a percentile would rest on a handful
    of outliers.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {n} samples has {n - rank} beyond it; "
                         f"need at least {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)``: the 99th percentile, or, when there are too few
    samples for it, the highest whole percentile that still has
    :data:`MIN_BEYOND` samples beyond it."""
    n = len(samples)
    p = min(99, math.floor(100.0 * (n - MIN_BEYOND) / n)) if n else 0
    if p < 1:
        raise ValueError(f"{n} samples are too few for a tail percentile")
    return p, percentile(samples, p)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile distance as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(list(values), n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else math.inf}
