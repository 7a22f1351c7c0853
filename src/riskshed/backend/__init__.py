"""Desk-scale LP and binary-MIP solving with dual extraction.

Two interchangeable backends sit behind the same contract:

* ``SimplexBackend`` is the reference implementation written here (bounded
  two-phase simplex plus branch and bound).  ``get_backend(None)`` returns
  it.
* ``ScipyBackend`` runs HiGHS through scipy.  It is the workhorse: the
  extensive forms, the bounding driver and the acceptance suite solve on
  it, and the CLI picks it by default (``--backend auto``).

``get_backend`` resolves ``None``/names to instances.  ``MemoBackend``
wraps either one and answers repeated programs from memory.
"""
from __future__ import annotations

import warnings

from . import bnb, simplex
from .memo import MemoBackend
from .mps import write_mps
from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, Backend,
    LinearProgram, LpSolution, MipSolution, MixedBinaryProgram,
    NumericalFailure, SolveStats,
)

__all__ = [
    "Backend", "LinearProgram", "LpSolution", "MixedBinaryProgram",
    "MipSolution", "NumericalFailure", "SolveStats", "SimplexBackend",
    "ScipyBackend", "MemoBackend", "get_backend", "write_mps",
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "NODE_CAP",
]

# scipy's milp warns on every call that it hands this option to HiGHS
# verbatim; the scipy backend sets it on purpose (see scipy_backend).
warnings.filterwarnings(
    "ignore", r"Unrecognized options detected: "
    r"\{'mip_heuristic_run_feasibility_jump'\}", RuntimeWarning)


class SimplexBackend(Backend):
    """Reference backend; deterministic and dependency-free."""

    name = "reference"

    def solve_lp(self, lp, **kwargs):
        sol = simplex.solve_lp(lp, **kwargs)
        self.stats.lp_solves += 1
        self.stats.lp_iterations += sol.iterations
        return sol

    def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
        sol = bnb.solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)
        self.stats.mip_solves += 1
        self.stats.nodes += sol.nodes
        self.stats.lp_iterations += sol.iterations
        return sol


class ScipyBackend(Backend):
    """HiGHS-backed adapter conforming to the same contract."""

    name = "scipy"

    def solve_lp(self, lp, **kwargs):
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


_NAMES = {"reference": SimplexBackend, "scipy": ScipyBackend}


def get_backend(spec=None) -> Backend:
    """Resolve a backend argument: None -> fresh reference backend,
    a name ("reference", "scipy", "auto") -> instance, an instance -> itself.
    "auto" prefers scipy when importable.
    """
    if spec is None:
        return SimplexBackend()
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        if spec == "auto":
            try:
                import scipy  # noqa: F401
                return ScipyBackend()
            except ImportError:
                return SimplexBackend()
        try:
            return _NAMES[spec]()
        except KeyError:
            raise ValueError(f"unknown backend {spec!r}") from None
    raise TypeError(f"cannot interpret backend spec {spec!r}")
