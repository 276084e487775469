"""The windowed-percentile reducer and its helpers, on hand-made samples."""

import pytest

from servebench.stats import percentile, spread, windowed_percentile, windowed_rate


def test_percentile_interpolates_and_rejects_empty():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def _five_windows(stalled_value):
    """Five 1-s windows of 20 samples; the last three hold a stall each."""
    stamps, values = [], []
    for window in range(5):
        for i in range(20):
            stamps.append(window + i / 20.0)
            values.append(1.0)
        if window > 1:
            for i in range(5):  # a quarter of the window
                values[window * 20 + 5 + i] = stalled_value
    return stamps, values


def test_windowed_p95_reports_the_quiet_window_not_the_stalled_ones():
    stamps, values = _five_windows(stalled_value=500.0)
    # three of five windows are stalled: their p95, the median window's p95 and
    # the whole run's p95 all read the stall; the quiet quartile does not
    assert windowed_percentile(stamps, values, 95.0, span_s=5.0, window_s=1.0) == 1.0
    assert windowed_percentile(stamps, values, 95.0, span_s=5.0, window_s=1.0, across=50.0) > 100.0
    assert percentile(values, 95.0) > 100.0


def test_windowed_percentile_ignores_partial_and_thin_windows():
    stamps, values = _five_windows(stalled_value=1.0)
    # samples past the last whole window are not a window
    stamps += [5.2, 5.4]
    values += [900.0, 900.0]
    assert windowed_percentile(stamps, values, 95.0, span_s=5.5, window_s=1.0, across=100.0) == 1.0
    # a window with fewer than min_samples values does not vote
    assert windowed_percentile([0.1, 0.2], [5.0, 6.0], 95.0, span_s=0.5) is None
    assert windowed_percentile([0.1, 0.2], [5.0, 6.0], 50.0, span_s=0.5, min_samples=2) == 5.5
    with pytest.raises(ValueError):
        windowed_percentile([0.1], [1.0, 2.0], 95.0, span_s=1.0)


def test_windowed_rate_is_the_upper_quartile_window_weighted_by_items():
    # windows of 0.5 s completing 1, 2, 3, 4, 5 responses; the last response is late
    done = [0.1, 0.6, 0.7, 1.1, 1.2, 1.3, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.6]
    ones = [1] * len(done)
    # rates 2, 4, 6, 8, 10 per second: the upper quartile is 8
    assert windowed_rate(done, ones, span_s=2.5) == 8.0
    assert windowed_rate(done, ones, span_s=2.5, across=50.0) == 6.0
    assert windowed_rate(done, [8] * len(done), span_s=2.5) == 64.0
    assert windowed_rate(done, ones, span_s=0.4) is None
    with pytest.raises(ValueError):
        windowed_rate(done, ones[:-1], span_s=2.5)


def test_spread_is_iqr_over_median():
    series = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25, median 14.5
    assert spread(series) == pytest.approx((17.25 - 11.75) / 14.5)
