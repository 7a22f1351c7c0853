"""The HiGHS backend, through scipy's ``linprog`` and ``milp``.

scipy is a hard dependency and HiGHS is the package's one solver: every
LP and MIP the package solves runs here.  Duals are remapped to the
package convention (>= rows nonnegative, <= rows nonpositive,
minimization).

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


def _split_rows(lp):
    """Partition rows into (A_ub, b_ub, ub_map) and (A_eq, b_eq, eq_map).

    >= rows are negated into <= form; ub_map records (row index, sign) so the
    marginals can be mapped back.
    """
    A_ub, b_ub, ub_map = [], [], []
    A_eq, b_eq, eq_map = [], [], []
    for i, sense in enumerate(lp.senses):
        if sense == "=":
            A_eq.append(lp.lhs[i])
            b_eq.append(lp.rhs[i])
            eq_map.append(i)
        elif sense == "<=":
            A_ub.append(lp.lhs[i])
            b_ub.append(lp.rhs[i])
            ub_map.append((i, 1.0))
        else:
            A_ub.append(-lp.lhs[i])
            b_ub.append(-lp.rhs[i])
            ub_map.append((i, -1.0))
    return (A_ub, b_ub, ub_map), (A_eq, b_eq, eq_map)


def solve_lp(lp) -> LpSolution:
    (A_ub, b_ub, ub_map), (A_eq, b_eq, eq_map) = _split_rows(lp)
    bounds = list(zip(lp.lower, lp.upper))
    res = sciopt.linprog(
        c=lp.objective,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED)
    if res.status != 0:
        raise NumericalFailure(f"linprog failed: {res.message}")
    duals = np.zeros(lp.num_rows)
    for k, (i, sign) in enumerate(ub_map):
        duals[i] = sign * res.ineqlin.marginals[k]
    for k, i in enumerate(eq_map):
        duals[i] = res.eqlin.marginals[k]
    reduced = res.lower.marginals + res.upper.marginals
    iters = int(getattr(res, "nit", 0) or 0)
    return LpSolution(status=OPTIMAL, objective=float(res.fun), x=res.x.copy(),
                      duals=duals, reduced_costs=reduced, iterations=iters)


def solve_mip(mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP) -> MipSolution:
    lp = mip.lp
    is_le = np.array([s == "<=" for s in lp.senses], dtype=bool)
    is_ge = np.array([s == ">=" for s in lp.senses], dtype=bool)
    lb = np.where(is_le, -np.inf, lp.rhs)
    ub = np.where(is_ge, np.inf, lp.rhs)
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
