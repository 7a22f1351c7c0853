"""Matrix-form programs, solution records and the backend contract."""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

SENSES = ("<=", "=", ">=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NODE_CAP = "node_cap"

DEFAULT_NODE_CAP = 100_000      # branch-and-bound nodes per MIP solve


class NumericalFailure(RuntimeError):
    """The solver could not certify its answer within tolerances."""


class SolveFailed(RuntimeError):
    """A solve the caller relies on came back with ``status``, not optimal."""

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


def optimal(sol, what):
    """sol when it is optimal; otherwise raise SolveFailed naming what."""
    if sol.status != OPTIMAL:
        raise SolveFailed(f"{what} came back {sol.status}", sol.status)
    return sol


@dataclass
class LinearProgram:
    """min objective'x  s.t.  lhs x {<=,=,>=} rhs,  lower <= x <= upper.

    Dense data: lhs is an (m, n) matrix, also when m is 0; senses is a
    per-row sequence drawn from SENSES.  Bounds may be -inf/+inf.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lhs = np.asarray(self.lhs, dtype=float)
        if self.lhs.ndim != 2:
            raise ValueError(f"lhs must be 2-dimensional, got shape {self.lhs.shape}")
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.senses = list(self.senses)
        m, n = self.lhs.shape
        if self.objective.shape != (n,):
            raise ValueError(f"objective shape {self.objective.shape} != ({n},)")
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs shape {self.rhs.shape} != ({m},)")
        if len(self.senses) != m:
            raise ValueError(f"{len(self.senses)} senses for {m} rows")
        for s in self.senses:
            if s not in SENSES:
                raise ValueError(f"unknown sense {s!r}")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("bounds must not be NaN")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective must be finite")
        if not (np.all(np.isfinite(self.lhs)) and np.all(np.isfinite(self.rhs))):
            raise ValueError("constraint data must be finite")

    @property
    def num_vars(self):
        return self.objective.shape[0]

    @property
    def num_rows(self):
        return self.rhs.shape[0]


@dataclass
class LpSolution:
    """LP result.  When optimal, duals follow the minimization convention:

    >= rows have duals >= 0, <= rows duals <= 0, = rows free; the dual
    objective rhs'y plus bound terms matches the primal objective.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    iterations: int = 0


@dataclass
class MixedBinaryProgram:
    """An LP plus a per-variable binary flag (binaries live in {0,1})."""

    lp: LinearProgram
    binary: np.ndarray

    def __post_init__(self):
        self.binary = np.asarray(self.binary, dtype=bool)
        if self.binary.shape != (self.lp.num_vars,):
            raise ValueError("binary mask must match the variable count")


@dataclass
class MipSolution:
    status: str
    objective: float | None = None   # incumbent value
    x: np.ndarray | None = None      # binary columns are exactly 0.0 or 1.0
    bound: float | None = None       # proven lower bound (minimization)
    nodes: int = 0
    # HiGHS through milp reports no LP iteration count, so this stays 0;
    # bench/tracing.py still sums it over every solution.
    iterations: int = 0


@dataclass
class SolveStats:
    """Deterministic effort counters accumulated by a backend handle."""

    lp_solves: int = 0
    mip_solves: int = 0
    lp_iterations: int = 0
    nodes: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def add(self, lp_solves=0, mip_solves=0, lp_iterations=0, nodes=0):
        """Add one solve's counts; pool threads share one SolveStats."""
        with self._lock:
            self.lp_solves += lp_solves
            self.mip_solves += mip_solves
            self.lp_iterations += lp_iterations
            self.nodes += nodes

    def as_dict(self):
        return {
            "lp_solves": self.lp_solves,
            "mip_solves": self.mip_solves,
            "lp_iterations": self.lp_iterations,
            "nodes": self.nodes,
        }


class Backend:
    """Backend contract: stateless solve calls plus effort counters.

    Implementations must be deterministic (identical inputs give identical
    outputs) and safe to call from multiple threads.
    """

    def __init__(self):
        self.stats = SolveStats()

    def solve_lp(self, lp: LinearProgram) -> LpSolution:
        raise NotImplementedError

    def solve_mip(self, mip: MixedBinaryProgram, gap_tol: float = 0.0,
                  node_cap: int = DEFAULT_NODE_CAP) -> MipSolution:
        raise NotImplementedError
