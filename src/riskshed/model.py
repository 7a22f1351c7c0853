"""Two-stage stochastic programs with binary decisions and mean-risk objectives.

The canonical problem is

    min  c'x + E[ q(w)' y(w) ]
    s.t. A x >= b,  x binary (per-variable flags)
         T(w) x + W(w) y(w) >= h(w),  y(w) binary or nonnegative, per scenario w

over a finite scenario set with probabilities summing to one.  Risk-averse
variants replace the plain expectation with a mean-risk functional of the
per-scenario total cost f_w = c'x + q'y*(w).
"""
from __future__ import annotations

import enum
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .util import map_ordered, resolve_threads

# Probability sums farther than this from 1 are rejected; closer mismatches
# are renormalized with a warning.
PROBABILITY_TOL = 1e-6
PROBABILITY_EXACT_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
# All-binary recourse with at most this many columns is valued by testing
# every y in {0,1}^n2 (4096 points at the cap) instead of by a MIP solve.
MAX_ENUMERATED_N2 = 12
ENUMERATION_TOL = 1e-9


class InfeasibleSecondStage(RuntimeError):
    """No feasible recourse exists for the queried (x, scenario) pair."""


class UnboundedSecondStage(RuntimeError):
    """The recourse program is unbounded below, which indicates bad model data."""


class ValidationError(ValueError):
    """Problem data violates the model contract."""


class RiskMeasure(enum.Enum):
    EXPECTATION = "expectation"
    EXPECTED_EXCESS = "expected-excess"
    MODIFIED_EXPECTED_EXCESS = "modified-expected-excess"
    ABSOLUTE_SEMIDEVIATION = "absolute-semideviation"


# Measures that take an excess target eta.
_ETA_MEASURES = (RiskMeasure.EXPECTED_EXCESS, RiskMeasure.MODIFIED_EXPECTED_EXCESS)


@dataclass(frozen=True)
class RiskSpec:
    """A risk measure with its parameters.

    rho is the risk weight (0 <= rho <= 1; 0 recovers the expectation).
    eta is the excess target, required for the excess measures and
    rejected for the others.
    """

    measure: RiskMeasure = RiskMeasure.EXPECTATION
    rho: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        if not isinstance(self.measure, RiskMeasure):
            object.__setattr__(self, "measure", RiskMeasure(self.measure))
        if not (0.0 <= self.rho <= 1.0):
            raise ValidationError(f"rho must lie in [0, 1], got {self.rho}")
        if self.measure in _ETA_MEASURES:
            if self.eta is None:
                raise ValidationError(f"{self.measure.value} requires an excess target eta")
        elif self.eta is not None:
            raise ValidationError(f"{self.measure.value} does not take an eta target")


def _as_float_array(value, ndim, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class Scenario:
    """One realization of the second stage.

    Rows are in >= sense:  T x + W y >= h.  Binary-flagged y variables live in
    {0,1} (relaxed to [0,1]); the rest are continuous with y >= 0.
    """

    probability: float
    cost: np.ndarray              # q, (n2,)
    technology: np.ndarray        # T, (m2, n1)
    recourse: np.ndarray          # W, (m2, n2)
    rhs: np.ndarray               # h, (m2,)
    integrality: np.ndarray = None  # bool, (n2,); default all binary

    def __post_init__(self):
        self.cost = _as_float_array(self.cost, 1, "scenario cost")
        self.technology = _as_float_array(self.technology, 2, "technology matrix")
        self.recourse = _as_float_array(self.recourse, 2, "recourse matrix")
        self.rhs = _as_float_array(self.rhs, 1, "scenario rhs")
        if self.integrality is None:
            self.integrality = np.ones(self.cost.shape[0], dtype=bool)
        else:
            self.integrality = np.asarray(self.integrality, dtype=bool)

    @property
    def n2(self):
        return self.cost.shape[0]

    @property
    def m2(self):
        return self.rhs.shape[0]


@dataclass
class TwoStageProblem:
    """Stochastic program data in canonical >= form."""

    first_stage_cost: np.ndarray      # c, (n1,)
    first_stage_matrix: np.ndarray    # A, (m1, n1), rows A x >= b
    first_stage_rhs: np.ndarray       # b, (m1,)
    scenarios: list[Scenario] = field(default_factory=list)
    first_stage_integrality: np.ndarray = None  # bool, (n1,); default all binary
    name: str = ""

    def __post_init__(self):
        self.first_stage_cost = _as_float_array(self.first_stage_cost, 1, "first-stage cost")
        self.first_stage_matrix = _as_float_array(self.first_stage_matrix, 2, "first-stage matrix")
        self.first_stage_rhs = _as_float_array(self.first_stage_rhs, 1, "first-stage rhs")
        if self.first_stage_integrality is None:
            self.first_stage_integrality = np.ones(self.n1, dtype=bool)
        else:
            self.first_stage_integrality = np.asarray(self.first_stage_integrality, dtype=bool)
        if self.scenarios:
            total = float(sum(s.probability for s in self.scenarios))
            if abs(total - 1.0) > PROBABILITY_EXACT_TOL and abs(total - 1.0) <= PROBABILITY_TOL:
                warnings.warn(
                    f"scenario probabilities sum to {total!r}; renormalizing",
                    stacklevel=2,
                )
                for s in self.scenarios:
                    s.probability = float(s.probability) / total

    @property
    def n1(self):
        return self.first_stage_cost.shape[0]

    @property
    def m1(self):
        return self.first_stage_rhs.shape[0]

    @property
    def n2(self):
        return self.scenarios[0].n2 if self.scenarios else 0

    @property
    def m2(self):
        return self.scenarios[0].m2 if self.scenarios else 0

    @property
    def num_scenarios(self):
        return len(self.scenarios)

    @property
    def probabilities(self):
        return np.array([s.probability for s in self.scenarios], dtype=float)

    def first_stage_feasible(self, x, tol=FEASIBILITY_TOL):
        x = np.asarray(x, dtype=float)
        if self.m1 == 0:
            return True
        return bool(np.all(self.first_stage_matrix @ x >= self.first_stage_rhs - tol))


def validate(problem: TwoStageProblem) -> list[str]:
    """Return a list of human-readable contract violations (empty if clean)."""
    issues = []
    n1 = problem.n1
    if n1 == 0:
        issues.append("first stage has no variables")
    A, b = problem.first_stage_matrix, problem.first_stage_rhs
    if A.shape != (b.shape[0], n1):
        issues.append(f"first-stage matrix shape {A.shape} != ({b.shape[0]}, {n1})")
    for arr, label in ((problem.first_stage_cost, "first-stage cost"),
                       (A, "first-stage matrix"), (b, "first-stage rhs")):
        if not np.all(np.isfinite(arr)):
            issues.append(f"{label} contains non-finite entries")
    if problem.first_stage_integrality.shape != (n1,):
        issues.append("first-stage integrality flag length mismatch")
    if not problem.scenarios:
        issues.append("at least one scenario is required")
        return issues
    n2 = problem.scenarios[0].n2
    m2 = problem.scenarios[0].m2
    for k, s in enumerate(problem.scenarios):
        if s.probability < 0:
            issues.append(f"scenario {k}: negative probability {s.probability}")
        if s.n2 != n2 or s.m2 != m2:
            issues.append(f"scenario {k}: inconsistent dimensions ({s.m2}x{s.n2} vs {m2}x{n2})")
            continue
        if s.technology.shape != (m2, n1):
            issues.append(f"scenario {k}: technology shape {s.technology.shape} != ({m2}, {n1})")
        if s.recourse.shape != (m2, n2):
            issues.append(f"scenario {k}: recourse shape {s.recourse.shape} != ({m2}, {n2})")
        if s.integrality.shape != (n2,):
            issues.append(f"scenario {k}: integrality flag length mismatch")
        for arr, label in ((s.cost, "cost"), (s.technology, "technology"),
                           (s.recourse, "recourse"), (s.rhs, "rhs")):
            if not np.all(np.isfinite(arr)):
                issues.append(f"scenario {k}: {label} contains non-finite entries")
    total = float(sum(s.probability for s in problem.scenarios))
    if abs(total - 1.0) > PROBABILITY_TOL:
        issues.append(f"scenario probabilities sum to {total!r}, outside the 1e-6 window")
    return issues


def require_valid(problem: TwoStageProblem):
    issues = validate(problem)
    if issues:
        raise ValidationError("; ".join(issues))


# ---------------------------------------------------------------------------
# Evaluation at a fixed first-stage decision
# ---------------------------------------------------------------------------

def second_stage_program(problem, x, index):
    """The recourse program min q'y s.t. W y >= h - T x for one scenario.

    Returns a backend MixedBinaryProgram.
    """
    from .backend import LinearProgram, MixedBinaryProgram

    s = problem.scenarios[index]
    x = np.asarray(x, dtype=float)
    rhs = s.rhs - s.technology @ x
    lower = np.zeros(s.n2)
    upper = np.where(s.integrality, 1.0, np.inf)
    lp = LinearProgram(
        objective=s.cost.copy(),
        lhs=s.recourse.copy(),
        senses=[">="] * s.m2,
        rhs=rhs,
        lower=lower,
        upper=upper,
    )
    return MixedBinaryProgram(lp=lp, binary=s.integrality.copy())


@functools.lru_cache(maxsize=MAX_ENUMERATED_N2 + 1)
def _binary_points(n):
    """Every point of {0,1}^n, one per row, in lexicographic order."""
    points = np.array(list(itertools.product((0.0, 1.0), repeat=n))).reshape(-1, n)
    points.setflags(write=False)
    return points


def _no_recourse(index, x):
    return InfeasibleSecondStage(
        f"scenario {index} has no feasible recourse at x={np.asarray(x).tolist()}")


def evaluate_scenario_cost(problem, x, index, backend=None):
    """Exact second-stage cost q'y*(w) at first-stage decision x.

    When every recourse column is binary and n2 <= MAX_ENUMERATED_N2,
    every y in {0,1}^n2 is tested against W y >= h - T x and the first
    cheapest one is priced as q'y, the same product the MIP route
    returns; no solver is called.  Any other
    scenario is solved on ``backend``.

    Raises InfeasibleSecondStage / UnboundedSecondStage on pathological
    scenarios; both indicate the model violates the recourse assumptions.
    """
    from .backend import get_backend

    s = problem.scenarios[index]
    if s.n2 <= MAX_ENUMERATED_N2 and s.integrality.all():
        ys = _binary_points(s.n2)
        need = s.rhs - s.technology @ x - ENUMERATION_TOL
        fits = (ys @ s.recourse.T >= need).all(axis=1)
        if not fits.any():
            raise _no_recourse(index, x)
        best = int(np.argmin(np.where(fits, ys @ s.cost, np.inf)))
        return float(s.cost @ ys[best])
    backend = get_backend(backend)
    prog = second_stage_program(problem, x, index)
    sol = backend.solve_mip(prog)
    if sol.status == "infeasible":
        raise _no_recourse(index, x)
    if sol.status == "unbounded":
        raise UnboundedSecondStage(f"scenario {index} recourse is unbounded below")
    if sol.status != "optimal":
        raise RuntimeError(f"scenario {index} solve ended with status {sol.status}")
    return float(sol.objective)


def scenario_costs(problem, x, backend=None, threads=None):
    """Vector of exact second-stage costs, one per scenario."""
    workers = resolve_threads(threads)
    indices = range(problem.num_scenarios)
    vals = map_ordered(
        lambda k: evaluate_scenario_cost(problem, x, k, backend=backend),
        indices, threads=workers,
    )
    return np.array(vals, dtype=float)


def risk_functional(total_costs, probabilities, spec, first_stage_cost=None,
                    excess_on="total"):
    """Mean-risk value from per-scenario total costs f_w.

    excess_on selects the excess argument for the excess measures:
    "total" uses f_w - eta; "second_stage" uses (f_w - c'x) - eta and adds the
    first-stage cost to the excess term (the two readings of the excess
    extensive form).  first_stage_cost is required for "second_stage".
    """
    f = np.asarray(total_costs, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    fbar = float(p @ f)
    m, rho = spec.measure, spec.rho
    if m is RiskMeasure.EXPECTATION:
        return fbar
    if m is RiskMeasure.ABSOLUTE_SEMIDEVIATION:
        return fbar + rho * float(p @ np.maximum(f - fbar, 0.0))
    # excess measures
    if excess_on == "total":
        excess = float(p @ np.maximum(f - spec.eta, 0.0))
    elif excess_on == "second_stage":
        if first_stage_cost is None:
            raise ValidationError("second_stage excess needs the first-stage cost")
        phi = f - first_stage_cost
        excess = first_stage_cost + float(p @ np.maximum(phi - spec.eta, 0.0))
    else:
        raise ValidationError(f"unknown excess_on mode {excess_on!r}")
    if m is RiskMeasure.EXPECTED_EXCESS:
        return fbar + rho * excess
    if m is RiskMeasure.MODIFIED_EXPECTED_EXCESS:
        return (1.0 - rho) * fbar + rho * excess
    raise ValueError(f"unknown measure {m}")


def evaluate_objective(problem, x, spec, backend=None, excess_on="total",
                       threads=None):
    """Mean-risk objective value at a fixed feasible first-stage decision."""
    return evaluate_solution(problem, x, spec, backend=backend,
                             excess_on=excess_on, threads=threads).objective


@dataclass
class FirstStageSolution:
    """A first-stage decision with its objective breakdown."""

    x: np.ndarray
    objective: float
    first_stage_cost: float
    scenario_totals: np.ndarray   # f_w = c'x + q'y*(w)
    expectation: float            # sum p_w f_w
    risk_term: float              # objective - expectation contribution detail


def evaluate_solution(problem, x, spec, backend=None, excess_on="total",
                      threads=None) -> FirstStageSolution:
    """Like evaluate_objective but returns the full breakdown."""
    x = np.asarray(x, dtype=float)
    if not problem.first_stage_feasible(x):
        raise ValidationError("x violates the first-stage constraints")
    phi = scenario_costs(problem, x, backend=backend, threads=threads)
    cx = float(problem.first_stage_cost @ x)
    f = cx + phi
    p = problem.probabilities
    fbar = float(p @ f)
    value = risk_functional(f, p, spec, first_stage_cost=cx, excess_on=excess_on)
    return FirstStageSolution(
        x=x.copy(), objective=value, first_stage_cost=cx,
        scenario_totals=f, expectation=fbar, risk_term=value - fbar,
    )
