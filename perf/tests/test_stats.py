import pytest

from perf import stats


@pytest.mark.parametrize(
    "count, expected",
    [(1400, 99.0), (999, 98.0), (493, 97.0), (213, 95.0), (100, 90.0), (20, 50.0), (19, None)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_percentile_interpolates_and_median_matches():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(list(range(101)), 95.0) == 95.0


def test_relative_spread_is_iqr_over_median():
    assert stats.relative_spread([10.0]) == 0.0
    assert stats.relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert stats.relative_spread(values) == pytest.approx(1.0)
