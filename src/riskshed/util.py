"""Small shared helpers."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV_VAR = "RISKSHED_THREADS"


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


def resolve_threads(threads=None):
    """Worker count: explicit argument, else RISKSHED_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def map_ordered(fn, items, threads=None):
    """Map fn over items, preserving order. threads > 1 uses a thread pool;
    None resolves as in resolve_threads.

    Results are collected in input order either way, so callers see the same
    reduction sequence regardless of the worker count.
    """
    items = list(items)
    threads = resolve_threads(threads)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]
