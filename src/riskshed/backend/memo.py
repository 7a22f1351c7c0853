"""A backend that answers repeated solves from memory.

``MemoBackend`` wraps another backend and keys each call on a digest of
every field that reaches the solver: objective, constraint matrix (shape
and values), senses, rhs, bounds, binary mask and the MIP options.  The
``Backend`` contract makes identical inputs give identical outputs, so a
repeat gets the first answer back unchanged.  That answer is shared
between callers, so its arrays are made read-only.

The wrapper shares the wrapped backend's ``stats``, which therefore count
the solves that actually ran.  It keeps every answer for as long as it
lives: make one per driver run and drop it afterwards.
"""
from __future__ import annotations

import hashlib
import threading

import numpy as np

from .program import DEFAULT_NODE_CAP, Backend


def _digest(lp, binary=None, options=()):
    """BLAKE2b digest of everything the solver sees; None binary means LP."""
    h = hashlib.blake2b(digest_size=32)
    h.update(repr((lp.lhs.shape, lp.senses, binary is None, options)).encode())
    arrays = [lp.objective, lp.lhs, lp.rhs, lp.lower, lp.upper]
    if binary is not None:
        arrays.append(binary)
    for array in arrays:
        h.update(np.ascontiguousarray(array))
    return h.digest()


def _freeze(sol):
    for name in ("x", "duals"):
        array = getattr(sol, name, None)
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return sol


class MemoBackend(Backend):
    """Answers each distinct program once; thread-safe."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.name = inner.name
        self.stats = inner.stats
        self._lock = threading.Lock()
        self._slots = {}            # digest -> [lock, solution or None]

    def _cached(self, key, solve):
        with self._lock:
            slot = self._slots.setdefault(key, [threading.Lock(), None])
        with slot[0]:
            if slot[1] is None:
                slot[1] = _freeze(solve())
            return slot[1]

    def solve_lp(self, lp):
        return self._cached(_digest(lp), lambda: self.inner.solve_lp(lp))

    def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
        key = _digest(mip.lp, mip.binary, (float(gap_tol), int(node_cap)))
        return self._cached(key, lambda: self.inner.solve_mip(
            mip, gap_tol=gap_tol, node_cap=node_cap))
