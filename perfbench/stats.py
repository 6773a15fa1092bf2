"""Order statistics for the benchmark's timings.

Percentiles are nearest-rank: the reported value is a sample that was
measured, never an interpolation between two.  A tail percentile is only
reported when at least ``MIN_BEYOND`` samples lie beyond it.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["MIN_BEYOND", "percentile", "tail_percentile"]

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a nonempty sample."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(ordered[math.ceil(q * ordered.size) - 1])


def tail_percentile(samples, q: float) -> tuple[float, int]:
    """The ``q``-quantile and the number of samples strictly beyond it.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond it, so
    a workload too short to resolve its tail fails instead of reporting one.
    """
    value = percentile(samples, q)
    beyond = int(np.count_nonzero(np.asarray(samples, dtype=np.float64) > value))
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(100 * q)} has {beyond} of {len(samples)} samples beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return value, beyond
