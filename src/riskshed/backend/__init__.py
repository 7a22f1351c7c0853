"""Desk-scale LP and binary-MIP solving with dual extraction.

``ScipyBackend`` runs LPs and MIPs on the HiGHS bindings that scipy
bundles; it is the one solver, behind the ``Backend`` contract so that
``MemoBackend`` (which answers repeated programs from memory) and test
doubles can stand in for it.  ``get_backend`` gives a fresh
``ScipyBackend`` for ``None``.  ``solve --backend scipy`` names it; the
flag has no other choice and stays accepted because the benchmark's
``ordering_pipeline`` workload passes it and manifests record it.
"""
from __future__ import annotations

from .memo import MemoBackend
from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, Backend,
    LinearProgram, MixedBinaryProgram, SolveFailed, optimal,
)


class ScipyBackend(Backend):
    """HiGHS on scipy's bundled bindings, loaded on the first solve
    without the rest of scipy.optimize (``scipy_backend``)."""

    def solve_lp(self, lp):
        from . import scipy_backend

        sol = scipy_backend.solve_lp(lp)
        self.stats.add(lp_solves=1, lp_iterations=sol.iterations)
        return sol

    def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
        from . import scipy_backend

        sol = scipy_backend.solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)
        self.stats.add(mip_solves=1, nodes=sol.nodes)
        return sol


def get_backend(backend: Backend | None = None) -> Backend:
    """The given backend, or a fresh ``ScipyBackend`` for None."""
    return ScipyBackend() if backend is None else backend
