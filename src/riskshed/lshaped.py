"""L-shaped decomposition for the total-cost excess objective.

The master problem keeps the first stage and a value variable theta that
under-estimates the probability-weighted recourse term

    Theta(x; eta) = sum_w p_w phi_w(x; eta),
    phi_w(x; eta) = min { (1-rho) q'y + rho v :
                          W y >= h - T x,
                          v >= c'x + q'y - eta,  v >= 0,  0 <= y <= 1 }.

Subproblems relax second-stage binaries, so the master value is a lower
bound for the binary problem as well.  Binary upper bounds are carried as
explicit rows in the subproblem LP; with every variable lower bound at zero
the LP value then equals duals'rhs exactly, which keeps generated cuts
tight at the iterate to rounding error.

Cuts store the target eta as a separate sensitivity instead of baking it
into the right-hand side.  Dual feasibility does not involve the rhs, so a
cut generated at one eta stays valid after the rhs is rebased to another;
the pool can therefore be reused as the excess target moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import (Backend, LinearProgram, MixedBinaryProgram, get_backend,
                      optimal)
from .model import TwoStageProblem
from .util import map_ordered

THETA_FLOOR = -1e9
THETA_FLOOR_MARGIN = 1.0


@dataclass(frozen=True)
class OptimalityCut:
    """theta >= rhs_base - eta_coef * eta - coef @ x, valid for every eta."""

    coef: np.ndarray
    rhs_base: float
    eta_coef: float
    origin: str = "lshaped"
    scenario: int | None = None   # set in multicut mode

    def rhs_at(self, eta: float) -> float:
        return self.rhs_base - self.eta_coef * eta


@dataclass
class CutPool:
    """Cuts in insertion order; a bit-identical repeat is not stored twice."""

    cuts: list = field(default_factory=list)
    _keys: set = field(init=False, repr=False)

    @staticmethod
    def _key(cut):
        return (np.asarray(cut.coef, dtype=float).tobytes(), float(cut.rhs_base),
                float(cut.eta_coef), cut.scenario)

    def __post_init__(self):
        self._keys = {self._key(c) for c in self.cuts}

    def add(self, cut: OptimalityCut) -> bool:
        """Store cut unless an identical one is pooled; True if it entered."""
        key = self._key(cut)
        if key in self._keys:
            return False
        self._keys.add(key)
        self.cuts.append(cut)
        return True

    def __len__(self):
        return len(self.cuts)


def build_subproblem_lp(problem: TwoStageProblem, rho: float, index: int,
                        x, eta: float):
    """Scenario LP over (y, v) plus metadata describing rhs(x, eta).

    Returns (lp, meta); meta has the stacked x-block and base rhs so that
    row rhs = rhs_base - x_block @ x - eta_indicator * eta.
    """
    s = problem.scenarios[index]
    x = np.asarray(x, dtype=float)
    n1, n2, m2 = problem.n1, s.n2, s.m2
    bin_idx = np.flatnonzero(s.integrality)
    nb = bin_idx.size
    nrows = m2 + 1 + nb

    lhs = np.zeros((nrows, n2 + 1))
    lhs[:m2, :n2] = s.recourse
    lhs[m2, :n2] = -s.cost
    lhs[m2, n2] = 1.0
    for i, j in enumerate(bin_idx):
        lhs[m2 + 1 + i, j] = -1.0

    x_block = np.zeros((nrows, n1))
    x_block[:m2] = s.technology
    x_block[m2] = -problem.first_stage_cost
    rhs_base = np.zeros(nrows)
    rhs_base[:m2] = s.rhs
    rhs_base[m2 + 1:] = -1.0
    eta_ind = np.zeros(nrows)
    eta_ind[m2] = 1.0

    rhs = rhs_base - x_block @ x - eta_ind * eta
    obj = np.concatenate([(1.0 - rho) * s.cost, [rho]])
    lp = LinearProgram(objective=obj, lhs=lhs, senses=[">="] * nrows, rhs=rhs,
                       lower=np.zeros(n2 + 1), upper=np.full(n2 + 1, np.inf))
    meta = {"x_block": x_block, "rhs_base": rhs_base, "eta_row": m2}
    return lp, meta


def solve_subproblems(problem, rho, x, eta, backend: Backend, threads=None):
    """Per scenario, (value, coef, rhs_base, eta_coef): the LP value and its
    dual linearization phi(x', eta') >= rhs_base - eta_coef*eta' - coef @ x',
    valid at every (x', eta') and exact at the given (x, eta)."""

    def one(index):
        lp, meta = build_subproblem_lp(problem, rho, index, x, eta)
        sol = optimal(backend.solve_lp(lp), f"scenario {index} subproblem")
        duals = sol.duals
        return (sol.objective, meta["x_block"].T @ duals,
                float(duals @ meta["rhs_base"]), float(duals[meta["eta_row"]]))

    return map_ordered(one, range(problem.num_scenarios), threads=threads)


def cuts_from_duals(problem, sub_results, multicut=False):
    """Probability-weighted cuts from solve_subproblems' linearizations:
    one per scenario, or their sum (in scenario order) as one cut."""
    p = problem.probabilities
    made = [OptimalityCut(coef=p[k] * coef, rhs_base=p[k] * rhs_base,
                          eta_coef=p[k] * eta_coef, scenario=k)
            for k, (_, coef, rhs_base, eta_coef) in enumerate(sub_results)]
    if multicut:
        return made
    return [OptimalityCut(coef=sum((c.coef for c in made), np.zeros(problem.n1)),
                          rhs_base=sum(c.rhs_base for c in made),
                          eta_coef=sum(c.eta_coef for c in made))]


def build_master(problem, rho, pool: CutPool, eta, multicut=False):
    """Master MIP over (x, theta...); returns (program, num_theta)."""
    n1 = problem.n1
    S = problem.num_scenarios
    nt = S if multicut else 1
    m1 = problem.m1
    cuts = pool.cuts
    ncuts = len(cuts)

    ncols = n1 + nt
    lhs = np.zeros((m1 + ncuts, ncols))
    lhs[:m1, :n1] = problem.first_stage_matrix
    lhs[m1:, :n1] = np.reshape([c.coef for c in cuts], (ncuts, n1))
    slots = [(c.scenario or 0) if multicut else 0 for c in cuts]
    lhs[m1 + np.arange(ncuts), n1 + np.array(slots, dtype=int)] = 1.0
    allrhs = np.concatenate([problem.first_stage_rhs,
                             [c.rhs_at(eta) for c in cuts]])
    senses = [">="] * (m1 + ncuts)

    obj = np.zeros(ncols)
    obj[:n1] = (1.0 - rho) * problem.first_stage_cost
    obj[n1:] = 1.0
    lower = np.zeros(ncols)
    lower[n1:] = THETA_FLOOR
    upper = np.full(ncols, np.inf)
    upper[:n1] = np.where(problem.first_stage_integrality, 1.0, np.inf)
    binary = np.zeros(ncols, dtype=bool)
    binary[:n1] = problem.first_stage_integrality

    lp = LinearProgram(objective=obj, lhs=lhs, senses=senses, rhs=allrhs,
                       lower=lower, upper=upper)
    return MixedBinaryProgram(lp=lp, binary=binary), nt


@dataclass
class LShapedResult:
    status: str
    x: np.ndarray
    master_objective: float     # valid lower bound on the relaxed optimum
    iterations: int
    cuts: CutPool
    history: list


def lshaped_solve(problem: TwoStageProblem, rho: float, eta: float,
                  backend=None, tol=1e-6, max_iters=200, multicut=False,
                  warm_x=None, pool: CutPool | None = None, threads=None):
    """Run the decomposition to tol; reuses (and extends) a given cut pool.

    Convergence is declared when the master value is within tol of the best
    evaluated iterate.  The theta floor must be slack at that point;
    a floor still active after convergence indicates too few cuts and is
    reported as a failure rather than silently accepted.
    """
    backend = get_backend(backend)
    pool = pool if pool is not None else CutPool()
    history = []

    if warm_x is not None:
        subs = solve_subproblems(problem, rho, warm_x, eta, backend, threads)
        for cut in cuts_from_duals(problem, subs, multicut=multicut):
            pool.add(cut)

    best_upper = np.inf
    best_x = None
    status = "iteration_cap"
    x = np.zeros(problem.n1) if warm_x is None else np.asarray(warm_x, float)
    master_obj = -np.inf
    theta_val = THETA_FLOOR
    it = 0
    for it in range(1, max_iters + 1):
        program, nt = build_master(problem, rho, pool, eta, multicut)
        msol = optimal(backend.solve_mip(program), "master problem")
        x = msol.x[:problem.n1]
        theta_val = float(np.sum(msol.x[problem.n1:]))
        master_obj = msol.objective

        subs = solve_subproblems(problem, rho, x, eta, backend, threads)
        recourse = float(sum(problem.probabilities[k] * subs[k][0]
                             for k in range(problem.num_scenarios)))
        value_here = (1.0 - rho) * float(problem.first_stage_cost @ x) + recourse
        if value_here < best_upper:
            best_upper = value_here
            best_x = x.copy()
        gap = recourse - theta_val
        history.append({"iteration": it, "master": master_obj,
                        "theta": theta_val, "recourse": recourse,
                        "gap": gap, "cuts": len(pool)})
        scale = max(1.0, abs(best_upper))
        if gap <= tol * scale:
            status = "converged"
            break
        for cut in cuts_from_duals(problem, subs, multicut=multicut):
            pool.add(cut)

    if status == "converged" and theta_val <= THETA_FLOOR + THETA_FLOOR_MARGIN:
        raise RuntimeError("theta floor active at convergence; "
                           "the recourse bound is not trustworthy")
    return LShapedResult(status=status, x=best_x if best_x is not None else x,
                         master_objective=master_obj, iterations=it, cuts=pool,
                         history=history)
