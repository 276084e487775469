"""Reducers from raw samples to the numbers the benchmark reports.

Pure functions over sequences of floats: no clocks, no sockets, so the
unit tests can pin them exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Raises ``ValueError`` on an empty sample: a metric with no samples
    must surface as a failure, never as a silent 0.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    """Per-layer reducer: a layer a workload never enters reports 0."""
    return percentile(values, q) if values else 0.0


#: Width of the windows a run is cut into, and which window speaks for the run.
WINDOW_S = 0.5
QUIET_QUARTILE = 25.0


def windowed_percentile(
    stamps_s: Sequence[float],
    values: Sequence[float],
    q: float,
    span_s: float,
    window_s: float = WINDOW_S,
    min_samples: int = 20,
    across: float = QUIET_QUARTILE,
) -> Optional[float]:
    """The quiet-quartile window's ``q``-th percentile.

    ``stamps_s[i]`` places ``values[i]`` on the run's time axis; the axis
    ``[0, span_s)`` is cut into ``window_s`` windows (a window counts
    only when it is whole and holds at least ``min_samples`` values),
    each window's ``q``-th percentile is taken, and the ``across``-th
    percentile of those is returned.  On this host a neighbour slows the
    whole box for seconds at a time; that only ever adds time, so the
    lower quartile of windows is what the system does when left alone,
    and it is far steadier from run to run than the median window or a
    percentile over the whole run (``bench/README.md`` has the numbers).
    Returns ``None`` when no window qualifies.
    """
    if len(stamps_s) != len(values):
        raise ValueError("stamps and values must pair up")
    windows = int(span_s // window_s)
    buckets: List[List[float]] = [[] for _ in range(windows)]
    for stamp, value in zip(stamps_s, values):
        index = int(stamp // window_s)
        if 0 <= index < windows:
            buckets[index].append(value)
    per_window = [percentile(b, q) for b in buckets if len(b) >= min_samples]
    if not per_window:
        return None
    return percentile(per_window, across)


def windowed_rate(
    done_s: Sequence[float],
    weights: Sequence[float],
    span_s: float,
    window_s: float = WINDOW_S,
    across: float = 100.0 - QUIET_QUARTILE,
) -> Optional[float]:
    """The quiet-quartile window's rate: (Σ weights completed in it) ÷ window.

    With unit weights this is responses per second; with each response's
    item count, items per second.  The mirror image of
    :func:`windowed_percentile`: for a rate the undisturbed windows are
    the *upper* quartile.  Returns ``None`` when the run holds no whole
    window.
    """
    if len(done_s) != len(weights):
        raise ValueError("completion stamps and weights must pair up")
    windows = int(span_s // window_s)
    if windows < 1:
        return None
    totals = [0.0] * windows
    for stamp, weight in zip(done_s, weights):
        index = int(stamp // window_s)
        if 0 <= index < windows:
            totals[index] += weight
    return percentile([total / window_s for total in totals], across)


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
