"""The HiGHS backend: LPs on scipy's bundled HiGHS bindings, MIPs through
scipy's ``milp``.

scipy is a hard dependency and HiGHS is the package's one solver: every
LP and MIP the package solves runs here.  Both read rows through one pair
of sense masks (``_senses``).

An LP goes straight to ``scipy.optimize._highspy._core``, the highspy
bindings scipy bundles since 1.15, in the shape ``linprog(method="highs")``
gave it, so that HiGHS sees the same input and returns the same bits: the
``<=`` rows with ``>=`` rows negated, stacked above the ``=`` rows, as a
column-wise matrix of the nonzeros.  HiGHS's infinity is IEEE infinity, so
infinite bounds pass unchanged.  One ``HighsOptions``, built on import and
never changed (worker threads share it), carries the five settings
``linprog`` sent; each call gets a fresh ``_Highs``.  The status is read as
``linprog`` read it, and so is its post-solve test: an "optimal" answer that
holds a NaN, or breaks a bound or a row by more than ``_FEASIBILITY_TOL``,
raises ``NumericalFailure``.  Duals are mapped back to the package
convention (>= rows nonnegative, <= rows nonpositive, minimization).

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
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LpSolution,
    MipSolution, NumericalFailure,
)

# linprog's post-solve tolerance: 10 * sqrt(tol) at its default tol 1e-9.
_FEASIBILITY_TOL = 10 * np.sqrt(1e-9)


def _lp_options():
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_LP_OPTIONS = _lp_options()
_STATUS = highs.HighsModelStatus


def _senses(lp):
    """The ``<=`` and ``>=`` row masks; every other row is an equality."""
    senses = np.array(lp.senses)
    return senses == "<=", senses == ">="


def _highs_lp(lp, a, row_lower, row_upper):
    """A ``HighsLp`` over lp's columns with rows ``row_lower <= a x <= row_upper``."""
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.col_cost_ = lp.objective
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    # Column-wise nonzeros, rows ascending within each column.
    nonzero = a.T != 0
    matrix = model.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    matrix.index_ = np.nonzero(nonzero)[1]
    matrix.value_ = a.T[nonzero]
    return model


def _check_optimal(x, objective, lower, upper, slack, residual):
    """Raise NumericalFailure unless an optimal answer is free of NaN and
    meets its bounds, its ``<=`` rows (slack) and its ``=`` rows (residual)."""
    tol = _FEASIBILITY_TOL
    if (np.isnan(x).any() or np.isnan(objective) or np.isnan(slack).any()
            or np.isnan(residual).any()
            or not np.all((x >= lower - tol) & (x <= upper + tol))
            or (slack < -tol).any() or (np.abs(residual) > tol).any()):
        raise NumericalFailure(
            f"HiGHS reported optimal, but its answer breaks a bound or a row "
            f"by more than {tol:.2E}")


def solve_lp(lp) -> LpSolution:
    le, ge = _senses(lp)
    ub = le | ge
    eq = ~ub
    # HiGHS gets the rows as linprog passed them, <= rows above = rows:
    # negate the >= rows, and their duals back.
    sign = np.where(ge, -1.0, 1.0)
    b_ub = lp.rhs[ub] * sign[ub]
    b_eq = lp.rhs[eq]
    a = np.vstack((lp.lhs[ub] * sign[ub, None], lp.lhs[eq]))
    model = _highs_lp(lp, a, np.concatenate((np.full(b_ub.size, -highs.kHighsInf), b_eq)),
                      np.concatenate((b_ub, b_eq)))
    solver = highs._Highs()
    solver.passOptions(_LP_OPTIONS)
    loaded = solver.passModel(model) != highs.HighsStatus.kError
    ran = loaded and solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus() if loaded else _STATUS.kModelError
    if status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return LpSolution(status=INFEASIBLE)
    if status == _STATUS.kUnbounded:
        return LpSolution(status=UNBOUNDED)
    if not ran or status != _STATUS.kOptimal:
        raise NumericalFailure(
            f"HiGHS LP solve ended {solver.modelStatusToString(status)}")
    info = solver.getInfo()
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    rows = np.array(solution.row_value)
    objective = info.objective_function_value
    _check_optimal(x, objective, lp.lower, lp.upper,
                   b_ub - rows[:b_ub.size], b_eq - rows[b_ub.size:])
    row_duals = np.array(solution.row_dual)
    duals = np.zeros(lp.num_rows)
    duals[ub] = sign[ub] * row_duals[:b_ub.size]
    duals[eq] = row_duals[b_ub.size:]
    iters = info.simplex_iteration_count or info.ipm_iteration_count
    return LpSolution(status=OPTIMAL, objective=float(objective), x=x,
                      duals=duals, iterations=int(iters))


def solve_mip(mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP) -> MipSolution:
    lp = mip.lp
    le, ge = _senses(lp)
    lb = np.where(le, -np.inf, lp.rhs)
    ub = np.where(ge, np.inf, lp.rhs)
    lower = np.maximum(lp.lower, np.where(mip.binary, 0.0, lp.lower))
    upper = np.minimum(lp.upper, np.where(mip.binary, 1.0, lp.upper))
    # A sparse matrix, also with no rows: LinearConstraint converts a dense
    # one under a process-wide "error" warning filter (scipy 1.17), and a
    # pool thread's milp would then raise its option warning.
    constraints = [sciopt.LinearConstraint(csc_array(lp.lhs), lb, ub)]
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
    # + 0.0 turns the -0.0 that rounding a tiny negative value gives into 0.0
    x[binary] = np.round(x[binary]) + 0.0
    return x
