"""Small shared helpers."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def gap_percent(lower, upper):
    """Relative optimality gap in percent, anchored on the lower bound.

    Matches the reporting convention used for the bound tables: the
    magnitude of the bound with the larger absolute value on negative
    objectives, so gaps stay in [0, 100] for sandwiches around negative
    optima.  Zero lower bound with a positive gap reports inf.
    """
    gap = upper - lower
    if lower == 0.0:
        return float("inf") if gap > 0 else 0.0
    return 100.0 * gap / abs(lower)


def map_ordered(fn, items, threads=None):
    """Map fn over items, preserving order. threads > 1 uses a thread pool;
    None means one worker.

    Results are collected in input order either way, so callers see the same
    reduction sequence regardless of the worker count.
    """
    items = list(items)
    if threads is not None and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]
