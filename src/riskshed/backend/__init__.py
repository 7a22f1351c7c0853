"""Desk-scale LP and binary-MIP solving with dual extraction.

``ScipyBackend`` runs HiGHS through scipy (LPs on its bundled HiGHS
bindings, MIPs through ``milp``); it is the one solver, behind
the ``Backend`` contract so that ``MemoBackend`` (which answers repeated
programs from memory) and test doubles can stand in for it.
``get_backend`` gives a fresh ``ScipyBackend`` for ``None``.
"""
from __future__ import annotations

import warnings

from .memo import MemoBackend
from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, Backend,
    LinearProgram, MixedBinaryProgram, SolveFailed, optimal,
)

# scipy's milp warns on every call that it hands this option to HiGHS
# verbatim; the scipy backend sets it on purpose (see scipy_backend).
warnings.filterwarnings(
    "ignore", r"Unrecognized options detected: "
    r"\{'mip_heuristic_run_feasibility_jump'\}", RuntimeWarning)


class ScipyBackend(Backend):
    """HiGHS through scipy; scipy.optimize is imported on the first solve,
    as it is slow to load."""

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
