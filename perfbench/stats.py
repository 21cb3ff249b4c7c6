"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def p50(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest supported percentile.

    The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it is the ``TAIL_BEYOND + 1``-th largest sample, at percentile
    ``100 * (n - TAIL_BEYOND) / n``.  With too few samples there is no
    such percentile and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    return (
        float(ordered[n - TAIL_BEYOND - 1]),
        100.0 * (n - TAIL_BEYOND) / n,
        n,
    )
