"""The HiGHS backend, through scipy's ``linprog`` and ``milp``.

scipy is a hard dependency and HiGHS is the package's one solver: every
LP and MIP the package solves runs here.  Both read rows through one pair
of sense masks (``_senses``): ``milp`` as row bounds, ``linprog`` as a
``<=`` block with ``>=`` rows negated plus an equality block, its duals
mapped back to the package convention (>= rows nonnegative, <= rows
nonpositive, minimization).

Every MIP solve gets the caller's relative gap and node cap plus one fixed
HiGHS setting: the feasibility-jump primal heuristic is off.  The programs
solved here are small and come by the thousand, and the heuristic's
start-up took several times longer than the solve itself.  ``milp`` passes
the option to HiGHS unchanged but warns about it on every call;
``riskshed.backend`` filters that one warning on import, before this
module (imported on first use, as scipy.optimize is slow to load) runs.
A solve that stops at the node cap returns ``NODE_CAP`` with HiGHS's dual
bound and the incumbent, if any.  A solve that stops on any other HiGHS
error is retried once without presolve, with the same settings.
"""
from __future__ import annotations

import numpy as np
from scipy import optimize as sciopt

from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LpSolution,
    MipSolution, NumericalFailure,
)


def _senses(lp):
    """The ``<=`` and ``>=`` row masks; every other row is an equality."""
    senses = np.array(lp.senses)
    return senses == "<=", senses == ">="


def solve_lp(lp) -> LpSolution:
    le, ge = _senses(lp)
    ub = le | ge
    eq = ~ub
    # linprog takes <= rows only: negate the >= rows, and their duals back.
    sign = np.where(ge, -1.0, 1.0)
    res = sciopt.linprog(
        c=lp.objective,
        A_ub=lp.lhs[ub] * sign[ub, None] if ub.any() else None,
        b_ub=lp.rhs[ub] * sign[ub] if ub.any() else None,
        A_eq=lp.lhs[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED)
    if res.status != 0:
        raise NumericalFailure(f"linprog failed: {res.message}")
    duals = np.zeros(lp.num_rows)
    duals[ub] = sign[ub] * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    iters = int(getattr(res, "nit", 0) or 0)
    return LpSolution(status=OPTIMAL, objective=float(res.fun), x=res.x.copy(),
                      duals=duals, iterations=iters)


def solve_mip(mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP) -> MipSolution:
    lp = mip.lp
    le, ge = _senses(lp)
    lb = np.where(le, -np.inf, lp.rhs)
    ub = np.where(ge, np.inf, lp.rhs)
    lower = np.maximum(lp.lower, np.where(mip.binary, 0.0, lp.lower))
    upper = np.minimum(lp.upper, np.where(mip.binary, 1.0, lp.upper))
    constraints = (
        [sciopt.LinearConstraint(lp.lhs, lb, ub)] if lp.num_rows else []
    )
    options = {"mip_rel_gap": float(gap_tol), "node_limit": int(node_cap),
               # Feasibility jump takes ~8 ms to start on every call (HiGHS
               # 1.12, 2-core x86_64), more than these small MIPs take.
               "mip_heuristic_run_feasibility_jump": False}

    def run(**extra):
        # milp pops keys from the dict it is given: pass a fresh one.
        return sciopt.milp(c=lp.objective, constraints=constraints,
                           integrality=mip.binary.astype(int),
                           bounds=sciopt.Bounds(lower, upper),
                           options={**options, **extra})

    def capped(res):
        # scipy 1.17 reports HiGHS's node-limit stop (its "solution limit",
        # status 16) as status 4; older scipy reports status 1.
        return res.status == 1 or (res.status == 4 and _nodes(res) >= node_cap)

    res = run()
    if res.status == 4 and not capped(res):
        # HiGHS can hit a solve error on small, badly scaled masters after
        # presolve (knapsack seed 659's bounding master); the unpresolved
        # model solves cleanly.
        res = run(presolve=False)
    if res.status == 2:
        return MipSolution(status=INFEASIBLE)
    if res.status == 3:
        return MipSolution(status=UNBOUNDED)
    nodes = _nodes(res)
    if capped(res):
        bound = getattr(res, "mip_dual_bound", None)
        if res.x is None:
            return MipSolution(status=NODE_CAP, bound=bound, nodes=nodes)
        x = _snap(res.x, mip.binary)
        return MipSolution(status=NODE_CAP, objective=float(lp.objective @ x), x=x,
                           bound=bound, nodes=nodes)
    if res.status != 0 or res.x is None:
        raise NumericalFailure(f"milp failed: {res.message}")
    x = _snap(res.x, mip.binary)
    obj = float(lp.objective @ x)
    # Within a gap the incumbent is no bound; HiGHS's dual bound is.
    dual = getattr(res, "mip_dual_bound", None)
    bound = obj if dual is None or not np.isfinite(dual) else min(float(dual), obj)
    return MipSolution(status=OPTIMAL, objective=obj, x=x, bound=bound, nodes=nodes)


def _nodes(res):
    return int(getattr(res, "mip_node_count", 0) or 0)


def _snap(x, binary):
    x = np.asarray(x, dtype=float).copy()
    x[binary] = np.round(x[binary])
    return x
