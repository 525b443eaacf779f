"""The percentile rule: a tail percentile needs ten samples beyond it."""

import pytest
import stats


def test_p99_needs_a_thousand_samples():
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9


def test_tail_percentile_refuses_thin_tails():
    values = [float(i) for i in range(999)]
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.tail_percentile(values, 99)
    values.append(999.0)
    # Rank 990 holds 989.0; the ten values 990..999 lie beyond it.
    assert stats.tail_percentile(values, 99) == 989.0


def test_percentile_is_nearest_rank_and_a_measured_value():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_summary_reports_median_and_quartiles():
    summary = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert stats.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                    "n": 1}
