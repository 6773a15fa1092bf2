import pytest

from perfbench.stats import MIN_BEYOND, percentile, tail_percentile


def test_percentiles_are_nearest_rank_samples():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tail_needs_ten_samples_beyond_it():
    value, beyond = tail_percentile(list(range(1, 101)), 0.9)
    assert (value, beyond) == (90, MIN_BEYOND)
    with pytest.raises(ValueError, match="9 of 99"):
        tail_percentile(list(range(1, 100)), 0.9)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 10
    assert tail_percentile(samples, 0.9) == (1.0, 10)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 100 + [2.0] * 5, 0.9)


def test_bad_quantiles_and_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([], 0.5)
