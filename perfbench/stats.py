"""Summary statistics and the parent-vs-change decision rule."""

from __future__ import annotations

import statistics
import typing

#: Row labels of :func:`classify`.
IMPROVED = "improved"
UNCHANGED = "unchanged"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"

#: A claim needs the change to win this share of all pairs run.
WIN_SHARE = 0.9


def quartiles(values: typing.Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def spread(values: typing.Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if median 0)."""
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def supported_percentile(values: typing.Sequence[float]
                         ) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns ``(percentile, value)`` or None when the sample is too small
    for any of them (fewer than 40 values).
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in (99, 95, 90, 75):
        if count * (100 - percentile) / 100.0 >= 10:
            rank = min(count - 1, int(count * percentile / 100.0))
            return percentile, ordered[rank]
    return None


def classify(parent: typing.Sequence[float],
             change: typing.Sequence[float], *, better: str,
             bound: float) -> str:
    """Label one (metric, workload) row of a parent-vs-change comparison.

    ``parent[i]`` and ``change[i]`` are the i-th pair of runs (same
    seed, alternating order).  The rule:

    * **improved** -- the change wins at least 90% of all pairs (ties
      count for neither side) *and* the medians differ, in the better
      direction, by more than the parent's inter-quartile distance;
    * **unresolved** -- either side's spread (IQR / median) is wider
      than ``bound``, unless every change run reads better than every
      parent run;
    * **regressed** -- the change's median is worse than the parent's by
      more than ``bound`` (a share of the parent's median);
    * **unchanged** -- otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    if not parent or len(parent) != len(change):
        raise ValueError("need the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median)
    q1, q3 = quartiles(parent)
    if wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        return IMPROVED
    if max(spread(parent), spread(change)) > bound:
        every_run_better = (min(change) > max(parent) if sign > 0
                            else max(change) < min(parent))
        return UNCHANGED if every_run_better else UNRESOLVED
    if parent_median != 0 and -gain / abs(parent_median) > bound:
        return REGRESSED
    return UNCHANGED
