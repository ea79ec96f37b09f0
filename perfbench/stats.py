"""Order statistics shared by the benchmark and its steadiness check."""

import math
import statistics


def p50_and_tail(samples):
    """(median, tail, tail_percentile) of one sample set.

    The tail is the highest order statistic that still has at least ten
    samples above it, clamped so it is never below the upper median; both
    figures come from the same sorted list, so tail >= median always.
    With ten samples or fewer no order statistic has ten above it, and the
    maximum is reported instead (percentile 100)."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        k = n - 1
    else:
        k = max(n - 11, n // 2)
    return statistics.median(s), s[k], 100.0 * (k + 1) / n


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
