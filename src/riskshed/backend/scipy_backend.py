"""The HiGHS backend: LPs and MIPs on scipy's bundled HiGHS bindings.

scipy is a hard dependency and HiGHS is the package's one solver: every
LP and MIP the package solves is built into one ``HighsLp``
(``_highs_lp``) and run on a fresh ``_Highs`` from
``scipy.optimize._highspy._core``, the highspy bindings scipy bundles since
1.15.  Each gets the model and settings that ``linprog(method="highs")`` or
``milp`` gave HiGHS, so it returns the same bits, except that a MIP stopped
at its node cap with no incumbent returns ``NODE_CAP`` where ``milp``
reported a failure.  HiGHS's infinity is IEEE infinity, so infinite bounds
pass unchanged.

Only that extension is loaded, from its file (``_load_highs``): importing
the ``scipy.optimize`` package would load sparse, linalg, special and
about 540 more modules that nothing here calls, which cost about 0.4 s
and 40 MB per process (scipy 1.17.1, 2-core x86_64).  It is the same file
and the same module object that ``scipy.optimize`` uses, whichever is
imported first.

An LP's ``<=`` rows, with ``>=`` rows negated, sit above its ``=`` rows.
One ``HighsOptions``, built on import and never changed (worker threads
share it), carries the five settings ``linprog`` sent.  The status is read
as ``linprog`` read it, and so is its post-solve test: an "optimal" answer
that holds a NaN, or breaks a bound or a row by more than
``_FEASIBILITY_TOL``, raises ``NumericalFailure``.  Duals are mapped back
to the package convention (>= rows nonnegative, <= rows nonpositive).

A MIP keeps its rows in order, between limits, and its binary columns are
integer with bounds clipped to [0, 1].  Every MIP solve gets the caller's
gap and node cap, and the feasibility-jump heuristic is off: these MIPs
are small and come by the thousand, and its start-up took several times
longer than the solve.  A stop at the node cap returns ``NODE_CAP`` with
HiGHS's dual bound and the incumbent, if any.  A HiGHS error is retried
once without presolve, with the same settings.  Binaries come back as
exact 0.0 or 1.0.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy

from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LpSolution,
    MipSolution, NumericalFailure,
)


def _load_highs():
    """``scipy.optimize._highspy._core``: the module an earlier import made,
    else the extension loaded from its file in scipy's folder, else (for a
    scipy laid out otherwise) the ordinary import.  A loaded module stays
    out of ``sys.modules``: CPython's extension cache then hands this same
    object to a later ``import scipy.optimize``."""
    name = "scipy.optimize._highspy._core"
    spec = name not in sys.modules and importlib.machinery.PathFinder.find_spec(
        name, [str(Path(scipy.__file__).parent / "optimize" / "_highspy")])
    if not spec:
        return importlib.import_module(name)
    highs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(highs)
    return highs


highs = _load_highs()


def __getattr__(name):
    # ``sciopt`` is read only by bench/tracing.py, which swaps it for a
    # timing proxy on install: scipy.optimize loads on that first read.
    if name == "sciopt":
        import scipy.optimize
        return scipy.optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
# The statuses a MIP solve answers with; any other is a HiGHS error.
# kSolutionLimit is HiGHS's stop at the node cap (mip_max_nodes).
_MIP_ANSWERS = (_STATUS.kOptimal, _STATUS.kInfeasible, _STATUS.kModelError,
                _STATUS.kUnbounded, _STATUS.kSolutionLimit)
_VAR_TYPES = (highs.HighsVarType.kContinuous, highs.HighsVarType.kInteger)


def _senses(lp):
    """The ``<=`` and ``>=`` row masks; every other row is an equality."""
    senses = np.array(lp.senses)
    return senses == "<=", senses == ">="


def _highs_lp(objective, lower, upper, a, row_lower, row_upper):
    """A ``HighsLp``: min objective'x, lower <= x <= upper,
    row_lower <= a x <= row_upper."""
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = objective.size
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.col_cost_ = objective
    model.col_lower_ = lower
    model.col_upper_ = upper
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


def _run(model, options):
    """model solved on a fresh HiGHS: the solver and its model status, which
    is kModelError for a model HiGHS will not load.  A run that fails leaves
    an error status, so the status is all a caller reads."""
    solver = highs._Highs()
    solver.passOptions(options)
    if solver.passModel(model) == highs.HighsStatus.kError:
        return solver, _STATUS.kModelError
    solver.run()
    return solver, solver.getModelStatus()


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
    model = _highs_lp(lp.objective, lp.lower, lp.upper, a,
                      np.concatenate((np.full(b_ub.size, -highs.kHighsInf), b_eq)),
                      np.concatenate((b_ub, b_eq)))
    solver, status = _run(model, _LP_OPTIONS)
    if status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return LpSolution(status=INFEASIBLE)
    if status == _STATUS.kUnbounded:
        return LpSolution(status=UNBOUNDED)
    if status != _STATUS.kOptimal:
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


def _mip_options(gap_tol, node_cap):
    """The settings ``milp`` sent HiGHS, on HiGHS's defaults otherwise."""
    options = highs.HighsOptions()
    options.log_to_console = False
    options.mip_max_nodes = int(node_cap)
    options.mip_rel_gap = float(gap_tol)
    # Feasibility jump takes ~8 ms to start on every call (HiGHS 1.12,
    # 2-core x86_64), more than these small MIPs take.
    options.mip_heuristic_run_feasibility_jump = False
    return options


def solve_mip(mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP) -> MipSolution:
    lp = mip.lp
    le, ge = _senses(lp)
    model = _highs_lp(lp.objective,
                      np.maximum(lp.lower, np.where(mip.binary, 0.0, lp.lower)),
                      np.minimum(lp.upper, np.where(mip.binary, 1.0, lp.upper)),
                      lp.lhs, np.where(le, -np.inf, lp.rhs), np.where(ge, np.inf, lp.rhs))
    model.integrality_ = [_VAR_TYPES[b] for b in mip.binary.tolist()]
    options = _mip_options(gap_tol, node_cap)
    solver, status = _run(model, options)
    if status not in _MIP_ANSWERS:
        # HiGHS can hit a solve error on small, badly scaled masters after
        # presolve (knapsack seed 659's bounding master); the unpresolved
        # model solves cleanly.
        options.presolve = "off"
        solver, status = _run(model, options)
    if status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return MipSolution(status=INFEASIBLE)
    if status == _STATUS.kUnbounded:
        return MipSolution(status=UNBOUNDED)
    if status not in _MIP_ANSWERS:
        raise NumericalFailure(
            f"HiGHS MIP solve ended {solver.modelStatusToString(status)}")
    info = solver.getInfo()
    # With no binary column HiGHS solves an LP and leaves its MIP info unset.
    nodes, dual = ((info.mip_node_count, info.mip_dual_bound) if mip.binary.any()
                   else (0, np.inf))
    capped = status == _STATUS.kSolutionLimit
    if capped and info.objective_function_value == highs.kHighsInf:  # no incumbent
        return MipSolution(status=NODE_CAP, bound=dual, nodes=nodes)
    x = _snap(solver.getSolution().col_value, mip.binary)
    obj = float(lp.objective @ x)
    if capped:
        return MipSolution(status=NODE_CAP, objective=obj, x=x, bound=dual, nodes=nodes)
    # Within a gap the incumbent is no bound; HiGHS's dual bound is.
    bound = min(dual, obj) if np.isfinite(dual) else obj
    return MipSolution(status=OPTIMAL, objective=obj, x=x, bound=bound, nodes=nodes)


def _snap(x, binary):
    x = np.array(x, dtype=float)
    # + 0.0 turns the -0.0 that rounding a tiny negative value gives into 0.0
    x[binary] = np.round(x[binary]) + 0.0
    return x
