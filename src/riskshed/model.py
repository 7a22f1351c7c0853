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
from dataclasses import dataclass

import numpy as np

from .backend import (INFEASIBLE, UNBOUNDED, LinearProgram, MixedBinaryProgram,
                      SolveFailed, get_backend, optimal)
from .util import map_ordered

# Probability sums farther than this from 1 are rejected; closer mismatches
# are renormalized with a warning.
PROBABILITY_TOL = 1e-6
PROBABILITY_EXACT_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
# All-binary recourse with at most this many columns is valued by testing
# every y in {0,1}^n2 (4096 points at the cap) instead of by a MIP solve.
MAX_ENUMERATED_N2 = 12
# An all-binary first stage with at most this many columns may be searched
# point by point: by the oracle, and by neutral_plan when the recourse is
# enumerable too.
MAX_ENUMERATED_N1 = 12
ENUMERATION_TOL = 1e-9
# neutral_plan tests at most this many (x, y) pairs at once, each with
# m2 + 9 bytes of temporaries (fit masks and a cost).
ENUMERATION_PAIRS = 1 << 18


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
    """Stochastic program data in canonical >= form.

    Building one checks the contract and raises ValidationError naming each
    violation: n1 >= 1, A is (m1, n1), flag vectors match their variable
    counts, at least one scenario, each with the first one's (m2, n2) and
    with T (m2, n1) and W (m2, n2), all data finite, and probabilities
    finite, non-negative and summing to 1 within PROBABILITY_TOL.  A sum
    inside that window is rescaled to 1 with a warning.
    """

    first_stage_cost: np.ndarray      # c, (n1,)
    first_stage_matrix: np.ndarray    # A, (m1, n1), rows A x >= b
    first_stage_rhs: np.ndarray       # b, (m1,)
    scenarios: list[Scenario]
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
        issues = []
        n1, A, b = self.n1, self.first_stage_matrix, self.first_stage_rhs
        if n1 == 0:
            issues.append("first stage has no variables")
        if A.shape != (b.shape[0], n1):
            issues.append(f"first-stage matrix shape {A.shape} != ({b.shape[0]}, {n1})")
        for arr, label in ((self.first_stage_cost, "first-stage cost"),
                           (A, "first-stage matrix"), (b, "first-stage rhs")):
            if not np.all(np.isfinite(arr)):
                issues.append(f"{label} contains non-finite entries")
        if self.first_stage_integrality.shape != (n1,):
            issues.append("first-stage integrality flag length mismatch")
        if not self.scenarios:
            issues.append("at least one scenario is required")
        for k, s in enumerate(self.scenarios):
            m2, n2 = s.m2, s.n2
            if not np.isfinite(s.probability):
                issues.append(f"scenario {k}: probability {s.probability} is not finite")
            elif s.probability < 0:
                issues.append(f"scenario {k}: negative probability {s.probability}")
            if (m2, n2) != (self.m2, self.n2):
                issues.append(f"scenario {k}: inconsistent dimensions "
                              f"({m2}x{n2} vs {self.m2}x{self.n2})")
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
        total = float(sum(s.probability for s in self.scenarios))
        if self.scenarios and abs(total - 1.0) > PROBABILITY_TOL:
            issues.append(f"scenario probabilities sum to {total!r}, outside the 1e-6 window")
        if issues:
            raise ValidationError("; ".join(issues))
        if abs(total - 1.0) > PROBABILITY_EXACT_TOL:
            warnings.warn(f"scenario probabilities sum to {total!r}; renormalizing",
                          stacklevel=2)
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
        return self.scenarios[0].n2

    @property
    def m2(self):
        return self.scenarios[0].m2

    @property
    def num_scenarios(self):
        return len(self.scenarios)

    @property
    def probabilities(self):
        return np.array([s.probability for s in self.scenarios], dtype=float)

    def first_stage_feasible(self, x, tol=FEASIBILITY_TOL):
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.first_stage_matrix @ x >= self.first_stage_rhs - tol))


# ---------------------------------------------------------------------------
# Evaluation at a fixed first-stage decision
# ---------------------------------------------------------------------------

def second_stage_program(problem, x, index):
    """The recourse program min q'y s.t. W y >= h - T x for one scenario.

    Returns a backend MixedBinaryProgram.
    """
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


@functools.lru_cache(maxsize=max(MAX_ENUMERATED_N1, MAX_ENUMERATED_N2) + 1)
def _binary_points(n):
    """Every point of {0,1}^n, one per row, in lexicographic order."""
    points = np.array(list(itertools.product((0.0, 1.0), repeat=n))).reshape(-1, n)
    points.setflags(write=False)
    return points


def _first_cheapest(s, need):
    """The row of _binary_points(s.n2) holding the first cheapest y with
    W y >= need, or -1 where none fits; need is (m2,) or (k, m2), for one
    answer per row."""
    ys = _binary_points(s.n2)
    # W y for every y, one row of the table per row of W: reducing over
    # that short axis of a (..., m2, 2^n2) mask is several times faster
    loads = (ys @ s.recourse.T).T.copy()
    fits = (loads >= need[..., None]).all(axis=-2)
    best = np.argmin(np.where(fits, ys @ s.cost, np.inf), axis=-1)
    return np.where(fits.any(axis=-1), best, -1)


def _no_recourse(index, x):
    return SolveFailed(
        f"scenario {index} has no feasible recourse at x={np.asarray(x).tolist()}",
        INFEASIBLE)


def evaluate_scenario_cost(problem, x, index, backend=None):
    """Exact second-stage cost q'y*(w) at first-stage decision x.

    When every recourse column is binary and n2 <= MAX_ENUMERATED_N2,
    every y in {0,1}^n2 is tested against W y >= h - T x and the first
    cheapest one is priced as q'y, the same product the MIP route
    returns; no solver is called.  Any other
    scenario is solved on ``backend``.

    Raises ``SolveFailed`` with status ``infeasible`` or ``unbounded`` on
    pathological scenarios; both indicate the model violates the recourse
    assumptions.
    """
    s = problem.scenarios[index]
    if s.n2 <= MAX_ENUMERATED_N2 and s.integrality.all():
        need = s.rhs - s.technology @ x - ENUMERATION_TOL
        best = _first_cheapest(s, need)
        if best < 0:
            raise _no_recourse(index, x)
        return float(s.cost @ _binary_points(s.n2)[best])
    backend = get_backend(backend)
    prog = second_stage_program(problem, x, index)
    sol = backend.solve_mip(prog)
    if sol.status == INFEASIBLE:
        raise _no_recourse(index, x)
    if sol.status == UNBOUNDED:
        raise SolveFailed(f"scenario {index} recourse is unbounded below", UNBOUNDED)
    return float(optimal(sol, f"scenario {index} recourse solve").objective)


def neutral_plan(problem):
    """The risk-neutral optimum by enumeration, as one extensive-form vector.

    Returns None unless the first stage is all binary with n1 <=
    MAX_ENUMERATED_N1 and every scenario's recourse is all binary with
    n2 <= MAX_ENUMERATED_N2.  Otherwise goes through x in {0,1}^n1 in
    lexicographic order, keeps those that pass first_stage_feasible's test,
    and takes the first minimiser of c'x + sum_w p_w q_w'y_w, with each y_w
    picked by evaluate_scenario_cost's rule.  The result stacks x and each
    scenario's y, the extensive form's column layout.  Raises SolveFailed
    (infeasible) when no x has fitting recourse in every scenario.  The
    scenario count does not limit the rule: the work grows linearly in it,
    and the extensive form's MIP solve grows faster (timed up to 500
    scenarios).
    """
    n1, n2 = problem.n1, problem.n2
    if not (n1 <= MAX_ENUMERATED_N1 and n2 <= MAX_ENUMERATED_N2
            and problem.first_stage_integrality.all()
            and all(s.integrality.all() for s in problem.scenarios)):
        return None
    xs = _binary_points(n1)
    xs = xs[(xs @ problem.first_stage_matrix.T
             >= problem.first_stage_rhs - FEASIBILITY_TOL).all(axis=1)]
    ys = _binary_points(n2)
    chunk = max(1, ENUMERATION_PAIRS // len(ys))
    best_value, best = np.inf, None
    for start in range(0, len(xs), chunk):
        x = xs[start:start + chunk]
        value = x @ problem.first_stage_cost
        picks = []
        for s in problem.scenarios:
            pick = _first_cheapest(s, s.rhs - x @ s.technology.T - ENUMERATION_TOL)
            # weight before masking: a scenario of probability 0 without
            # fitting recourse must rule x out, and 0 * inf would be NaN
            value = value + np.where(
                pick >= 0, s.probability * (ys @ s.cost)[pick], np.inf)
            picks.append(pick)
        k = int(np.argmin(value))
        if value[k] < best_value:
            best_value = value[k]
            best = np.concatenate([x[k]] + [ys[pick[k]] for pick in picks])
    if best is None:
        raise SolveFailed("risk-neutral extensive form came back infeasible",
                          INFEASIBLE)
    return best


def scenario_costs(problem, x, backend=None, threads=None):
    """Vector of exact second-stage costs, one per scenario."""
    vals = map_ordered(
        lambda k: evaluate_scenario_cost(problem, x, k, backend=backend),
        range(problem.num_scenarios), threads=threads)
    return np.array(vals, dtype=float)


def risk_functional(total_costs, probabilities, spec, first_stage_cost=None):
    """Mean-risk value from per-scenario total costs f_w.

    Expected excess reads eta against the recourse cost f_w - c'x and adds
    the first-stage cost c'x to the excess term, as its extensive form
    does, so it needs first_stage_cost; modified expected excess reads eta
    against the total cost f_w.
    """
    f = np.asarray(total_costs, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    fbar = float(p @ f)
    m, rho = spec.measure, spec.rho
    if m is RiskMeasure.EXPECTATION:
        return fbar
    if m is RiskMeasure.ABSOLUTE_SEMIDEVIATION:
        return fbar + rho * float(p @ np.maximum(f - fbar, 0.0))
    if m is RiskMeasure.EXPECTED_EXCESS:
        if first_stage_cost is None:
            raise ValidationError("expected excess needs the first-stage cost")
        phi = f - first_stage_cost
        excess = first_stage_cost + float(p @ np.maximum(phi - spec.eta, 0.0))
        return fbar + rho * excess
    if m is RiskMeasure.MODIFIED_EXPECTED_EXCESS:
        excess = float(p @ np.maximum(f - spec.eta, 0.0))
        return (1.0 - rho) * fbar + rho * excess
    raise ValueError(f"unknown measure {m}")


def evaluate_objective(problem, x, spec, backend=None, threads=None):
    """Mean-risk objective value at a fixed feasible first-stage decision."""
    return evaluate_solution(problem, x, spec, backend=backend,
                             threads=threads).objective


@dataclass
class FirstStageSolution:
    """A first-stage decision with its objective and scenario totals."""

    x: np.ndarray
    objective: float
    scenario_totals: np.ndarray   # f_w = c'x + q'y*(w)


def evaluate_solution(problem, x, spec, backend=None,
                      threads=None) -> FirstStageSolution:
    """Like evaluate_objective but returns the full breakdown."""
    x = np.asarray(x, dtype=float)
    if not problem.first_stage_feasible(x):
        raise ValidationError("x violates the first-stage constraints")
    phi = scenario_costs(problem, x, backend=backend, threads=threads)
    cx = float(problem.first_stage_cost @ x)
    f = cx + phi
    value = risk_functional(f, problem.probabilities, spec, first_stage_cost=cx)
    return FirstStageSolution(x=x.copy(), objective=value, scenario_totals=f)
