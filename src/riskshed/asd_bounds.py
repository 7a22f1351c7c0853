"""Sandwich bounds for the absolute-semideviation objective.

The driver alternates between a target-excess master problem and exact
evaluation of candidate first stages:

  * the target eta starts at the risk-neutral optimal value and is nudged
    by a step xi toward balancing the probability mass of scenarios whose
    total cost sits above versus below it.  That optimum, and the first
    x_hat, come from ``model.neutral_plan``'s enumeration when the problem
    is all binary with n1 and n2 at most 12, and from a HiGHS solve of the
    neutral extensive form otherwise;
  * a master over (x, theta), fed by decomposition cuts and excess-mean
    subgradient cuts, yields lower-bound candidates master + rho*eta;
  * each new first stage is evaluated exactly (binary second stages) under
    the semideviation objective, driving the upper bound; small all-binary
    recourse is valued by enumeration in ``model.evaluate_scenario_cost``
    rather than by a MIP solve.

Lower-bound updates are only accepted while eta stays at or below the
risk-neutral value.  The bound chain needs eta <= mean total cost of every
candidate, and the risk-neutral optimum is a floor for those means, so this
is the cheapest certificate that holds uniformly.

Once the target stops moving, iterations mostly repeat earlier work: the
same candidate is evaluated again, the same cuts come back, and the same
master is rebuilt.  ``rm_asd_solve`` therefore runs on a ``MemoBackend``
that lives for one call (``initialize`` included) and answers repeated
programs from memory, and the cut pool rejects bit-identical cuts.  An
iteration whose key (x_hat, eta, pool size) after ``adjust_target`` repeats
is replayed: the body reads nothing else, and the pool only grows.  It
restores that body's x_hat, totals and event, and is exact.  The body is
deterministic and the pool rejects repeats, so it adds no cut.  Its lower
candidate was taken in already (beating ``lower`` now would need upper <=
lower, i.e. convergence); its value is already >= ``upper``.  Eta, xi and
the stall count evolve as before, since ``adjust_target`` still runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .backend import MemoBackend, get_backend, optimal
from .dep import build_dep_expectation
from .lshaped import (CutPool, OptimalityCut, build_master, cuts_from_duals,
                      lshaped_solve, solve_subproblems, THETA_FLOOR,
                      THETA_FLOOR_MARGIN)
from .model import (RiskMeasure, RiskSpec, TwoStageProblem, ValidationError,
                    evaluate_solution, neutral_plan)

MEMBERSHIP_TOL = 1e-9
STALL_LIMIT = 3                         # equal-mass ties before halving xi
INIT_LSHAPED_ITERS = 60                 # cap on the initial decomposition
INIT_TOL = 1e-6                         # its convergence tolerance


@dataclass
class AsdBoundsConfig:
    rho: float
    epsilon: float | None = None        # default 1e-4 * max(1, |Q_E|)
    xi: float | None = None             # default 0.01 * max(1, |Q_E|)
    max_iters: int = 50
    backend: object = None
    threads: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError("rho must lie in [0, 1]")
        for name in ("epsilon", "xi"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive")


@dataclass
class AsdBoundsState:
    eta: float
    lower: float
    upper: float
    x_hat: np.ndarray
    x_best: np.ndarray
    totals: np.ndarray                  # exact per-scenario totals at x_hat
    q_expectation: float                # risk-neutral optimum (see initialize)
    s_plus: list = field(default_factory=list)
    s_minus: list = field(default_factory=list)
    xi: float = 0.0
    epsilon: float = 0.0
    stalls: int = 0
    pool: CutPool = field(default_factory=CutPool)
    history: list = field(default_factory=list)
    status: str = "running"

    @property
    def gap(self):
        return self.upper - self.lower


def _asd_value(problem, x, rho, backend, threads):
    spec = RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=rho)
    sol = evaluate_solution(problem, x, spec, backend=backend, threads=threads)
    return sol.objective, sol.scenario_totals


def excess_mean_cut(problem, rho, x, eta, backend=None, threads=None):
    """Subgradient cut mixing own-scenario and mean linearizations.

    Scenario subproblems are solved relaxed; scenarios whose value reaches
    the probability-weighted mean contribute their own dual linearization,
    the rest contribute the mean's.  The assembled row lower-bounds the
    scenario-max-of-value-and-mean aggregate, which the semideviation
    objective is built from.
    """
    backend = get_backend(backend)
    subs = solve_subproblems(problem, rho, x, eta, backend, threads)
    p = problem.probabilities
    values, coefs, rhs0, etas = (np.array(column) for column in zip(*subs))
    q_bar = float(p @ values)
    mean_coef = p @ coefs
    mean_rhs = float(p @ rhs0)
    mean_eta = float(p @ etas)

    tol = MEMBERSHIP_TOL * max(1.0, abs(q_bar))
    coef = np.zeros(problem.n1)
    rhs_base = 0.0
    eta_coef = 0.0
    for k in range(problem.num_scenarios):
        if values[k] >= q_bar - tol:
            coef += p[k] * coefs[k]
            rhs_base += p[k] * rhs0[k]
            eta_coef += p[k] * etas[k]
        else:
            coef += p[k] * mean_coef
            rhs_base += p[k] * mean_rhs
            eta_coef += p[k] * mean_eta
    return OptimalityCut(coef=coef, rhs_base=rhs_base, eta_coef=eta_coef,
                         origin="excess-mean")


def _neutral_start(problem, backend):
    """The risk-neutral optimal first stage and value.

    They come from ``model.neutral_plan`` on small all-binary problems and
    from a solve of the neutral extensive form on ``backend`` otherwise.
    Either way the value is that form's objective vector times the plan,
    the product ``solve_mip`` returns.
    """
    program = build_dep_expectation(problem).program
    plan = neutral_plan(problem)
    if plan is None:
        neutral = optimal(backend.solve_mip(program), "risk-neutral extensive form")
        return neutral.x[:problem.n1], neutral.objective
    return plan[:problem.n1].copy(), float(program.lp.objective @ plan)


def initialize(problem: TwoStageProblem, config: AsdBoundsConfig) -> AsdBoundsState:
    """Risk-neutral optimum, target seeding, and first bound pair."""
    backend = get_backend(config.backend)
    x_hat, q_exp = _neutral_start(problem, backend)
    eta = q_exp
    scale = max(1.0, abs(q_exp))
    epsilon = config.epsilon if config.epsilon is not None else 1e-4 * scale
    xi = config.xi if config.xi is not None else 0.01 * scale

    upper, totals = _asd_value(problem, x_hat, config.rho, backend,
                               config.threads)
    pool = CutPool()
    inner = lshaped_solve(problem, config.rho, eta, backend=backend,
                          tol=INIT_TOL, max_iters=INIT_LSHAPED_ITERS,
                          warm_x=x_hat, pool=pool, threads=config.threads)
    # master + rho*eta lower-bounds every candidate's semideviation value
    # while eta <= Q_E; Q_E itself is always a floor.
    lower = max(q_exp, inner.master_objective + config.rho * eta)
    lower = min(lower, upper)   # guard rounding noise at rho=0 / single scenario
    state = AsdBoundsState(eta=eta, lower=lower, upper=upper, x_hat=x_hat,
                           x_best=x_hat.copy(), totals=totals,
                           q_expectation=q_exp, xi=xi, epsilon=epsilon,
                           pool=pool)
    state.history.append(_record(state, 0, cuts_added=len(pool), event="init"))
    return state


def _record(state, iteration, cuts_added=0, event=""):
    return {
        "iteration": iteration,
        "eta": state.eta,
        "lower": state.lower,
        "upper": state.upper,
        "gap": state.gap,
        "s_plus": len(state.s_plus),
        "s_minus": len(state.s_minus),
        "cuts_added": cuts_added,
        "event": event,
    }


def adjust_target(state: AsdBoundsState, problem: TwoStageProblem):
    """Classify scenarios against eta and step it toward the heavier side."""
    tol = MEMBERSHIP_TOL * max(1.0, abs(state.eta))
    diffs = state.totals - state.eta
    state.s_plus = [int(k) for k in np.flatnonzero(diffs > tol)]
    state.s_minus = [int(k) for k in np.flatnonzero(diffs < -tol)]
    p = problem.probabilities
    mass_plus = float(p[state.s_plus].sum()) if state.s_plus else 0.0
    mass_minus = float(p[state.s_minus].sum()) if state.s_minus else 0.0
    if mass_plus > mass_minus:
        state.eta += state.xi
        state.stalls = 0
    elif mass_plus < mass_minus:
        state.eta -= state.xi
        state.stalls = 0
    else:
        state.stalls += 1
        if state.stalls >= STALL_LIMIT:
            state.xi *= 0.5
            state.stalls = 0
    return state


def rm_asd_solve(problem: TwoStageProblem, config: AsdBoundsConfig):
    """Run the bounding loop; returns the final state with history.

    state.status is "converged" when upper - lower < epsilon, else
    "iteration_cap".  state.upper is always achievable by state.x_best.
    Solves run through a MemoBackend private to this call; the caller's
    backend stats count only the solves that actually ran.
    """
    backend = MemoBackend(get_backend(config.backend))
    config = replace(config, backend=backend)
    state = initialize(problem, config)
    if state.gap < state.epsilon:
        state.status = "converged"
        return state

    seen = {}
    for it in range(1, config.max_iters + 1):
        adjust_target(state, problem)
        key = (state.x_hat.tobytes(), state.eta, len(state.pool))
        if key in seen:
            state.x_hat, state.totals, event = seen[key]
            state.history.append(_record(state, it, 0, event))
            continue
        cut = excess_mean_cut(problem, config.rho, state.x_hat, state.eta,
                              backend, config.threads)
        cuts_added = int(state.pool.add(cut))

        program, _ = build_master(problem, config.rho, state.pool, state.eta)
        msol = optimal(backend.solve_mip(program), "bounding master")
        theta_val = float(msol.x[problem.n1])
        event = ""
        if theta_val <= THETA_FLOOR + THETA_FLOOR_MARGIN:
            event = "theta_floor"
        else:
            candidate = msol.objective + config.rho * state.eta
            eta_ok = state.eta <= state.q_expectation + MEMBERSHIP_TOL * max(
                1.0, abs(state.q_expectation))
            if eta_ok and candidate > state.lower:
                state.lower = min(candidate, state.upper)

        x_new = msol.x[:problem.n1]
        value, totals = _asd_value(problem, x_new, config.rho, backend,
                                   config.threads)
        if value < state.upper:
            state.upper = value
            state.x_best = x_new.copy()
        state.x_hat = x_new
        state.totals = totals

        subs = solve_subproblems(problem, config.rho, x_new, state.eta,
                                 backend, config.threads)
        cuts_added += sum(state.pool.add(c)
                          for c in cuts_from_duals(problem, subs))
        seen[key] = (x_new, totals, event)

        state.history.append(_record(state, it, cuts_added, event))
        if state.gap < state.epsilon:
            state.status = "converged"
            return state
    state.status = "iteration_cap"
    return state
