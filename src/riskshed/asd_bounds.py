"""Sandwich bounds for the absolute-semideviation objective.

The driver alternates between a target-excess master problem and exact
evaluation of candidate first stages:

  * the target eta starts at the risk-neutral optimal value and is nudged
    by a step xi toward balancing the probability mass of scenarios whose
    total cost sits above versus below it;
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
programs from memory, and the cut pool rejects bit-identical cuts.  A
stalled iteration then issues no solver call at all, while every bound,
iterate and target stays what re-solving would have given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import util
from .backend import MemoBackend, get_backend
from .dep import build_dep_expectation
from .lshaped import (CutPool, OptimalityCut, build_master, cuts_from_duals,
                      lshaped_solve, solve_subproblems, THETA_FLOOR,
                      THETA_FLOOR_MARGIN)
from .model import (RiskMeasure, RiskSpec, TwoStageProblem, evaluate_solution,
                    require_valid)


class CutGenerationError(RuntimeError):
    """A scenario subproblem failed while assembling a cut."""


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
            raise ValueError("rho must lie in [0, 1]")
        for name in ("epsilon", "xi"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")


@dataclass
class AsdBoundsState:
    eta: float
    lower: float
    upper: float
    x_hat: np.ndarray
    x_best: np.ndarray
    totals: np.ndarray                  # exact per-scenario totals at x_hat
    q_expectation: float                # risk-neutral optimal value
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

    def gap_percent(self):
        return util.gap_percent(self.lower, self.upper)


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
    try:
        subs = solve_subproblems(problem, rho, x, eta, backend, threads)
    except RuntimeError as exc:
        raise CutGenerationError(str(exc)) from exc
    p = problem.probabilities
    values = np.array([s[0] for s in subs])
    q_bar = float(p @ values)

    coefs = np.array([meta["x_block"].T @ duals for _, duals, meta in subs])
    rhs0 = np.array([float(duals @ meta["rhs_base"]) for _, duals, meta in subs])
    etas = np.array([float(duals[meta["eta_row"]]) for _, duals, meta in subs])
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


def initialize(problem: TwoStageProblem, config: AsdBoundsConfig) -> AsdBoundsState:
    """Risk-neutral solve, target seeding, and first bound pair."""
    require_valid(problem)
    backend = get_backend(config.backend)
    neutral = backend.solve_mip(build_dep_expectation(problem).program)
    if neutral.status != "optimal":
        raise RuntimeError(f"risk-neutral extensive form came back {neutral.status}")
    x_hat = np.asarray(neutral.x[:problem.n1]).copy()
    if problem.first_stage_integrality.any():
        x_hat[problem.first_stage_integrality] = np.round(
            x_hat[problem.first_stage_integrality])
    q_exp = neutral.objective
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

    for it in range(1, config.max_iters + 1):
        adjust_target(state, problem)
        cut = excess_mean_cut(problem, config.rho, state.x_hat, state.eta,
                              backend, config.threads)
        cuts_added = int(state.pool.add(cut))

        program, _ = build_master(problem, config.rho, state.pool, state.eta)
        msol = backend.solve_mip(program)
        if msol.status != "optimal":
            raise RuntimeError(f"bounding master came back {msol.status}")
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

        x_new = np.asarray(msol.x[:problem.n1]).copy()
        if problem.first_stage_integrality.any():
            x_new[problem.first_stage_integrality] = np.round(
                x_new[problem.first_stage_integrality])
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

        state.history.append(_record(state, it, cuts_added, event))
        if state.gap < state.epsilon:
            state.status = "converged"
            return state
    state.status = "iteration_cap"
    return state
