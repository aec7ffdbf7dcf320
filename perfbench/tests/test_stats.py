import math

import pytest

from perfbench import stats


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 80) == 4.0
    assert stats.percentile(values, 81) == 5.0
    assert stats.percentile(values, 100) == 5.0


def test_tail_has_ten_samples_beyond_and_is_the_highest_such():
    for n in range(40, 20_000):
        p = stats.tail_percentile(n)
        assert stats.beyond(n, p) >= stats.MIN_BEYOND, n
        higher = [q for q in stats.TAIL_LADDER if q > p]
        assert all(stats.beyond(n, q) < stats.MIN_BEYOND for q in higher), n


def test_beyond_counts_samples_strictly_above_the_percentile():
    values = list(range(1, 41))
    p = stats.tail_percentile(len(values))
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) == stats.beyond(len(values), p) == 10


def test_no_tail_below_forty_samples():
    assert all(stats.tail_percentile(n) is None for n in range(40))
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(530) == 98.0


def test_loglog_slope_recovers_the_exponent():
    sizes = [1, 2, 4, 8, 16]
    assert math.isclose(stats.loglog_slope(sizes, [3 * s**2 for s in sizes]), 2.0)
    assert math.isclose(stats.loglog_slope(sizes, [7.0] * 5), 0.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        stats.loglog_slope([4], [1.0])
