"""Summaries of timing samples: nearest-rank percentiles, the tail
percentile rule, and log-log growth slopes."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first. A tail always lies above the
# median, so fewer samples than the lowest candidate needs give no tail.
TAIL_LADDER = (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when n is too small for any tail."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def loglog_slope(sizes: list[int], values: list[float]) -> float:
    """Least-squares slope of log(value) against log(size): the exponent k
    in value ~ size**k."""
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("a slope needs at least two (size, value) points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
