"""Desk-scale LP and binary-MIP solving with dual extraction.

``ScipyBackend`` runs HiGHS through scipy; it is the one solver, behind
the ``Backend`` contract so that ``MemoBackend`` (which answers repeated
programs from memory) and test doubles can stand in for it.
``get_backend`` resolves ``None``, the name ``"scipy"`` or an instance.
"""
from __future__ import annotations

import warnings

from .memo import MemoBackend
from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, Backend,
    LinearProgram, LpSolution, MipSolution, MixedBinaryProgram,
    NumericalFailure, SolveStats,
)

__all__ = [
    "Backend", "LinearProgram", "LpSolution", "MixedBinaryProgram",
    "MipSolution", "NumericalFailure", "SolveStats", "ScipyBackend",
    "MemoBackend", "get_backend",
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "NODE_CAP",
]

# scipy's milp warns on every call that it hands this option to HiGHS
# verbatim; the scipy backend sets it on purpose (see scipy_backend).
warnings.filterwarnings(
    "ignore", r"Unrecognized options detected: "
    r"\{'mip_heuristic_run_feasibility_jump'\}", RuntimeWarning)


class ScipyBackend(Backend):
    """HiGHS through scipy; scipy.optimize is imported on the first solve,
    as it is slow to load."""

    name = "scipy"

    def solve_lp(self, lp):
        from . import scipy_backend

        sol = scipy_backend.solve_lp(lp)
        self.stats.lp_solves += 1
        self.stats.lp_iterations += sol.iterations
        return sol

    def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
        from . import scipy_backend

        sol = scipy_backend.solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)
        self.stats.mip_solves += 1
        self.stats.nodes += sol.nodes
        return sol


def get_backend(spec=None) -> Backend:
    """Resolve a backend argument: None or "scipy" -> a fresh
    ``ScipyBackend``, an instance -> itself.
    """
    if spec is None or spec == "scipy":
        return ScipyBackend()
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        raise ValueError(f"unknown backend {spec!r}")
    raise TypeError(f"cannot interpret backend spec {spec!r}")
