"""Unit tests for statistics helpers."""

import pytest

from repro.analysis.stats import (
    binomial_proportion_ci,
    mean_confidence_interval,
    percentile,
    summarize,
)


def test_mean_ci_contains_mean():
    mean, lo, hi = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert lo < mean < hi


def test_mean_ci_narrows_with_samples():
    small = mean_confidence_interval([1, 2, 3] * 3)
    large = mean_confidence_interval([1, 2, 3] * 100)
    assert (large[2] - large[1]) < (small[2] - small[1])


def test_mean_ci_single_sample_degenerate():
    mean, lo, hi = mean_confidence_interval([5.0])
    assert mean == lo == hi == 5.0


def test_mean_ci_empty_rejected():
    with pytest.raises(ValueError):
        mean_confidence_interval([])


def test_percentile():
    values = list(range(101))
    assert percentile(values, 50) == pytest.approx(50.0)
    assert percentile(values, 95) == pytest.approx(95.0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_binomial_ci_wilson_properties():
    p, lo, hi = binomial_proportion_ci(95, 100)
    assert p == 0.95
    assert 0.0 <= lo < p < hi <= 1.0
    # Near-certain estimates don't collapse to a zero-width interval.
    p, lo, hi = binomial_proportion_ci(100, 100)
    assert p == 1.0 and hi == 1.0 and lo < 1.0


def test_binomial_ci_validation():
    with pytest.raises(ValueError):
        binomial_proportion_ci(1, 0)
    with pytest.raises(ValueError):
        binomial_proportion_ci(5, 3)


def test_summarize_fields():
    s = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["n"] == 5
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["p50"] == pytest.approx(3.0)
    assert s["mean"] == pytest.approx(22.0)


def test_summarize_empty():
    s = summarize([])
    assert s["n"] == 0 and s["mean"] is None


def test_intervals_are_pinned_at_95_percent():
    """One sample, the exact 95 % bounds: a drifting level moves them."""
    assert binomial_proportion_ci(5, 10) == (
        0.5,
        pytest.approx(0.236593090512564, rel=1e-12),
        pytest.approx(0.7634069094874361, rel=1e-12),
    )
    assert mean_confidence_interval([1.0, 2.0, 3.0, 4.0]) == (
        2.5,
        pytest.approx(0.4457397432394794, rel=1e-9),
        pytest.approx(4.554260256760521, rel=1e-9),
    )
