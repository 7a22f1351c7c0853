"""The solver backend (HiGHS through scipy) and its memo wrapper.

Expected answers come from outside the solver: hand-worked programs,
strong duality checked from the returned duals, and the enumeration
oracle.  Random programs are drawn with bounded data so they stay
well-conditioned.
"""
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import optimize as sciopt
from scipy.sparse import csc_array

from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve
from riskshed.backend import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LinearProgram,
    MemoBackend, MixedBinaryProgram, ScipyBackend, SolveFailed, get_backend,
    optimal,
)
from riskshed.backend import scipy_backend
from riskshed.backend.program import NumericalFailure
from riskshed.dep import build_dep_absolute_semideviation, build_dep_expectation
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.lshaped import lshaped_solve, solve_subproblems
from riskshed.model import RiskMeasure, RiskSpec, scenario_costs
from riskshed.mssop import build_mssop_two_stage, generate_mssop_instance
from riskshed.oracle import brute_force_optimum

from conftest import python_on_src, svc_problem


def random_lp(rng, n=6, m=4):
    # box-bounded, Ax <= b with b comfortably positive: always feasible
    A = rng.uniform(-2.0, 3.0, (m, n))
    return LinearProgram(
        objective=rng.uniform(-5.0, 5.0, n),
        lhs=A,
        senses=["<="] * m,
        rhs=np.abs(A).sum(axis=1) * rng.uniform(0.3, 1.2, m),
        lower=np.zeros(n),
        upper=np.full(n, rng.uniform(1.0, 4.0)),
    )


def hand_lp():
    # min -x1 - 2 x2  s.t.  x1 + x2 <= 3, x2 <= 2, x >= 0 -> (1, 2), -5
    return LinearProgram(
        objective=[-1.0, -2.0],
        lhs=[[1.0, 1.0], [0.0, 1.0]],
        senses=["<=", "<="],
        rhs=[3.0, 2.0],
        lower=[0.0, 0.0],
        upper=[np.inf, np.inf],
    )


def mixed_sense_lp(rng, n=5, m=6):
    # rows of every sense around a known interior point: always feasible
    A = rng.uniform(-2.0, 3.0, (m, n))
    senses = list(rng.choice(["<=", "=", ">="], m))
    slack = np.select([np.array(senses) == "<=", np.array(senses) == ">="],
                      [1.0, -1.0], 0.0)
    return LinearProgram(objective=rng.uniform(-5.0, 5.0, n), lhs=A,
                         senses=senses, rhs=A @ np.full(n, 0.5) + slack,
                         lower=np.zeros(n), upper=np.ones(n))


def free_variable_lp():
    # min x + y  s.t.  x - y = 1,  x + y >= 2,  y free
    return LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, -1.0], [1.0, 1.0]],
                         senses=["=", ">="], rhs=[1.0, 2.0],
                         lower=[0.0, -np.inf], upper=[np.inf, np.inf])


def infeasible_lp():
    return LinearProgram(objective=[1.0], lhs=[[1.0], [-1.0]],
                         senses=[">=", ">="], rhs=[2.0, -1.0],
                         lower=[0.0], upper=[np.inf])


def unbounded_lp():
    return LinearProgram(objective=[-1.0], lhs=[[0.0]], senses=["<="],
                         rhs=[1.0], lower=[0.0], upper=[np.inf])


def test_hand_lp_with_duals():
    sol = ScipyBackend().solve_lp(hand_lp())
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-5.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-9)
    # duals: both rows tight, y = (-1, -1) for <= rows in min convention
    assert np.allclose(sol.duals, [-1.0, -1.0], atol=1e-9)


def test_lp_duals_certify_objective():
    rng = np.random.default_rng(3)
    backend = ScipyBackend()
    for trial in range(25):
        lp = random_lp(rng)
        sol = backend.solve_lp(lp)
        assert sol.status == OPTIMAL
        # strong duality with bound terms: c'x = y'b + l'max(rc,0) + u'min(rc,0)
        rc = lp.objective - lp.lhs.T @ sol.duals
        bound_part = lp.lower @ np.maximum(rc, 0.0)
        finite_u = np.where(np.isfinite(lp.upper), lp.upper, 0.0)
        bound_part += finite_u @ np.minimum(rc, 0.0)
        dual_obj = sol.duals @ lp.rhs + bound_part
        assert abs(dual_obj - sol.objective) < 1e-7 * max(1.0, abs(sol.objective))


def test_mixed_senses_duals_follow_the_convention():
    rng = np.random.default_rng(5)
    backend = ScipyBackend()
    for trial in range(25):
        lp = mixed_sense_lp(rng)
        sol = backend.solve_lp(lp)
        assert sol.status == OPTIMAL
        senses = np.array(lp.senses)
        le, ge = senses == "<=", senses == ">="
        assert np.all(sol.duals[le] <= 1e-9) and np.all(sol.duals[ge] >= -1e-9)
        rc = lp.objective - lp.lhs.T @ sol.duals
        dual_obj = sol.duals @ lp.rhs + lp.upper @ np.minimum(rc, 0.0)
        assert abs(dual_obj - sol.objective) < 1e-7 * max(1.0, abs(sol.objective))


def test_lhs_must_be_a_matrix_with_or_without_rows():
    with pytest.raises(ValueError, match="lhs must be 2-dimensional"):
        LinearProgram(objective=[1.0, 1.0], lhs=[1.0, 1.0], senses=[">="],
                      rhs=[1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
    for lower, upper in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [np.nan, 1.0])):
        with pytest.raises(ValueError, match="bounds must not be NaN"):
            LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 1.0]], senses=[">="],
                          rhs=[1.0], lower=lower, upper=upper)
    bounds_only = LinearProgram(objective=[1.0, -1.0], lhs=np.zeros((0, 2)),
                                senses=[], rhs=[], lower=[0.0, 0.0],
                                upper=[1.0, 1.0])
    sol = ScipyBackend().solve_lp(bounds_only)
    assert sol.status == OPTIMAL and sol.objective == -1.0
    assert sol.duals.shape == (0,)
    mip = ScipyBackend().solve_mip(
        MixedBinaryProgram(lp=bounds_only, binary=[True, True]))
    assert mip.status == OPTIMAL and mip.x.tolist() == [0.0, 1.0]


def test_lp_infeasible_and_unbounded():
    assert ScipyBackend().solve_lp(infeasible_lp()).status == INFEASIBLE
    assert ScipyBackend().solve_lp(unbounded_lp()).status == UNBOUNDED


def test_optimal_raises_solve_failed_with_the_status():
    bad = LinearProgram(objective=[1.0], lhs=[[1.0], [-1.0]],
                        senses=[">=", ">="], rhs=[2.0, -1.0],
                        lower=[0.0], upper=[1.0])
    backend = ScipyBackend()
    with pytest.raises(SolveFailed, match="^pinned lp came back infeasible$") as err:
        optimal(backend.solve_lp(bad), "pinned lp")
    assert err.value.status == INFEASIBLE
    with pytest.raises(SolveFailed) as err:
        optimal(backend.solve_mip(MixedBinaryProgram(lp=bad, binary=[True])),
                "pinned mip")
    assert err.value.status == INFEASIBLE
    good = backend.solve_mip(_hand_knapsack())
    assert optimal(good, "hand knapsack") is good


def test_equality_rows_and_free_variables():
    sol = ScipyBackend().solve_lp(free_variable_lp())
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 2.0) < 1e-9
    assert abs(sol.x[0] - sol.x[1] - 1.0) < 1e-9


def _linprog_reference(lp):
    """(status, objective, x, duals, iterations) of lp solved by
    ``linprog(method="highs")``, with >= rows negated into the <= block and
    their duals re-signed to the package convention."""
    senses = np.array(lp.senses)
    ub, ge = senses != "=", senses == ">="
    sign = np.where(ge, -1.0, 1.0)
    res = sciopt.linprog(
        c=lp.objective,
        A_ub=lp.lhs[ub] * sign[ub, None] if ub.any() else None,
        b_ub=lp.rhs[ub] * sign[ub] if ub.any() else None,
        A_eq=lp.lhs[~ub] if (~ub).any() else None,
        b_eq=lp.rhs[~ub] if (~ub).any() else None,
        bounds=list(zip(lp.lower, lp.upper)), method="highs")
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    if status != OPTIMAL:
        return status, None, None, None, 0
    duals = np.zeros(lp.num_rows)
    duals[ub] = sign[ub] * res.ineqlin.marginals
    duals[~ub] = res.eqlin.marginals
    return status, float(res.fun), res.x, duals, res.nit


def _subproblem_lps(problem, rho, max_iters):
    """The scenario subproblem LPs that solve_subproblems builds: those of
    one rm_asd_solve run, then at every binary x at the run's first and
    last target eta."""
    lps = []

    class Recording(ScipyBackend):
        def solve_lp(self, lp):
            lps.append(lp)
            return super().solve_lp(lp)

    backend = Recording()
    state = rm_asd_solve(problem, AsdBoundsConfig(rho=rho, max_iters=max_iters,
                                                  backend=backend))
    for k in range(2 ** problem.n1):
        x = np.array([(k >> j) & 1 for j in range(problem.n1)], dtype=float)
        for eta in (state.q_expectation, state.eta):
            solve_subproblems(problem, rho, x, eta, backend)
    return lps


def _reference_lps():
    rng = np.random.default_rng(5)
    lps = [hand_lp(), free_variable_lp(), infeasible_lp(), unbounded_lp()]
    lps += [random_lp(rng) for _ in range(5)]
    lps += [mixed_sense_lp(rng) for _ in range(10)]
    knapsack = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=0, m1=3, m2=4))
    return (lps + _subproblem_lps(knapsack, 0.5, 15)
            + _subproblem_lps(svc_problem(0), 0.5, 12))


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def test_lp_answers_match_linprog_bit_for_bit():
    lps = _reference_lps()
    statuses = set()
    for k, lp in enumerate(lps):
        sol = ScipyBackend().solve_lp(lp)
        status, objective, x, duals, iterations = _linprog_reference(lp)
        statuses.add(status)
        assert sol.status == status, k
        assert _bits(sol.objective) == _bits(objective), k
        assert _bits(sol.x) == _bits(x), k
        assert _bits(sol.duals) == _bits(duals), k
        assert sol.iterations == iterations, k
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED} and len(lps) > 700


def test_an_optimal_answer_off_its_bounds_or_rows_fails():
    x, lower, upper = np.array([0.5, 1.0]), np.zeros(2), np.ones(2)
    slack, residual = np.array([0.0, 2.0]), np.array([0.0])
    scipy_backend._check_optimal(x, 1.0, lower, upper, slack, residual)
    doctored = [
        (np.array([0.5, 1.001]), 1.0, slack, residual),      # above a bound
        (np.array([-0.001, 1.0]), 1.0, slack, residual),     # below a bound
        (x, 1.0, np.array([-0.001, 2.0]), residual),          # a <= row broken
        (x, 1.0, slack, np.array([0.001])),                   # an = row broken
        (x, 1.0, slack, np.array([-0.001])),
        (np.array([np.nan, 1.0]), 1.0, slack, residual),
        (x, np.nan, slack, residual),
        (x, 1.0, np.array([np.nan, 2.0]), residual),
        (x, 1.0, slack, np.array([np.nan])),
    ]
    for x_bad, objective, slack_bad, residual_bad in doctored:
        with pytest.raises(NumericalFailure):
            scipy_backend._check_optimal(x_bad, objective, lower, upper,
                                         slack_bad, residual_bad)


def _hand_knapsack():
    # max 5a + 4b + 3c, 2a + 3b + c <= 5 binary -> a=b=1, value 9
    return MixedBinaryProgram(
        lp=LinearProgram(objective=[-5.0, -4.0, -3.0], lhs=[[2.0, 3.0, 1.0]],
                         senses=["<="], rhs=[5.0], lower=np.zeros(3),
                         upper=np.ones(3)),
        binary=np.ones(3, dtype=bool))


def test_mip_hand_knapsack():
    sol = ScipyBackend().solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-9.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 1.0, 0.0])


def test_mip_binaries_carry_no_negative_zero():
    # HiGHS returns some of these binaries just below 0
    problem = generate_knapsack(KnapsackGenSpec(10, 12, 5, seed=2, m1=3, m2=4))
    sol = ScipyBackend().solve_mip(build_dep_expectation(problem).program)
    assert sol.status == OPTIMAL
    assert not np.signbit(sol.x[sol.x == 0.0]).any()


def _infeasible_mip():
    return MixedBinaryProgram(
        lp=LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 1.0], [-1.0, -1.0]],
                         senses=[">=", ">="], rhs=[1.5, -0.4],
                         lower=np.zeros(2), upper=np.ones(2)),
        binary=np.ones(2, dtype=bool))


def test_mip_proves_infeasible():
    assert ScipyBackend().solve_mip(_infeasible_mip()).status == INFEASIBLE


@pytest.mark.parametrize("seed", [3, 4])
def test_loose_gap_bound_is_proven(seed):
    # At a 5% gap HiGHS stops above the optimum on both instances; the
    # bound must still lie below the optimum.
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=seed, m1=3, m2=4))
    optimum = brute_force_optimum(problem, RiskSpec(RiskMeasure.EXPECTATION)).objective
    sol = ScipyBackend().solve_mip(build_dep_expectation(problem).program,
                                   gap_tol=0.05)
    assert sol.status == OPTIMAL
    assert sol.bound <= optimum + 1e-9 <= sol.objective + 2e-9
    assert sol.objective - sol.bound <= 0.05 * abs(sol.objective) + 1e-9


def _changed_options(options):
    """The HiGHS options that differ from HiGHS's defaults, by name."""
    default = scipy_backend.highs.HighsOptions()
    return {name: getattr(options, name) for name in dir(options)
            if not name.startswith("_")
            and getattr(options, name) != getattr(default, name)}


def test_scipy_mip_settings_survive_the_presolve_retry(monkeypatch):
    real, seen = scipy_backend._run, []

    def run(model, options):
        seen.append(_changed_options(options))
        solver, status = real(model, options)
        if len(seen) == 1:
            status = scipy_backend.highs.HighsModelStatus.kSolveError  # forces the retry
        return solver, status

    monkeypatch.setattr(scipy_backend, "_run", run)
    sol = ScipyBackend().solve_mip(_hand_knapsack(), gap_tol=0.01, node_cap=7)
    assert sol.status == OPTIMAL and abs(sol.objective + 9.0) < 1e-9
    fixed = {"log_to_console": False, "mip_rel_gap": 0.01, "mip_max_nodes": 7,
             "mip_heuristic_run_feasibility_jump": False}
    assert seen == [fixed, {**fixed, "presolve": "off"}]


def _subset_sum_mip():
    # 30 binaries whose weights must hit a sum exactly, 8 of them at once:
    # HiGHS's root node finds no incumbent, so a cap of one node ends with
    # none.
    rng = np.random.default_rng(0)
    weights = rng.integers(1000, 100000, 30).astype(float)
    return MixedBinaryProgram(
        lp=LinearProgram(objective=rng.uniform(-1.0, 1.0, 30),
                         lhs=[weights, np.full(30, 2.0)], senses=["=", "="],
                         rhs=[np.sort(weights)[::2][:8].sum(), 16.0],
                         lower=np.zeros(30), upper=np.ones(30)),
        binary=np.ones(30, dtype=bool))


def _count_highs_runs(monkeypatch):
    """The presolve setting of every HiGHS run the backend makes from now on."""
    real, calls = scipy_backend._run, []

    def run(model, options):
        calls.append(options.presolve)
        return real(model, options)

    monkeypatch.setattr(scipy_backend, "_run", run)
    return calls


def test_scipy_node_cap_returns_bound_without_retry(monkeypatch):
    # HiGHS ends a node-capped solve with its "solution limit" status; it
    # must come back as NODE_CAP from one HiGHS run, not as a retry.
    calls = _count_highs_runs(monkeypatch)
    problem = generate_knapsack(KnapsackGenSpec(10, 20, 10, seed=0, m1=5, m2=5))
    sol = ScipyBackend().solve_mip(build_dep_expectation(problem).program,
                                   node_cap=1)
    assert sol.status == NODE_CAP
    assert sol.x is not None and sol.bound <= sol.objective
    assert calls == ["choose"]


def test_scipy_node_cap_without_incumbent_returns_the_bound(monkeypatch):
    # scipy's milp read this stop as a failure: it retried without presolve
    # and then raised NumericalFailure.
    calls = _count_highs_runs(monkeypatch)
    sol = ScipyBackend().solve_mip(_subset_sum_mip(), node_cap=1)
    assert sol.status == NODE_CAP and sol.x is None and sol.objective is None
    assert np.isfinite(sol.bound) and sol.nodes == 1
    assert calls == ["choose"]


def _milp_reference(mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
    """(status, objective, x, bound, nodes) of mip solved by scipy's
    ``milp``, called as the backend called it before it ran HiGHS itself:
    a sparse matrix, binaries clipped to [0, 1], feasibility jump off, one
    retry without presolve after a HiGHS error, scipy's statuses mapped
    back (a node-cap stop reads as status 4 at or past the node cap)."""
    lp = mip.lp
    senses = np.array(lp.senses)
    constraints = [sciopt.LinearConstraint(
        csc_array(lp.lhs), np.where(senses == "<=", -np.inf, lp.rhs),
        np.where(senses == ">=", np.inf, lp.rhs))]
    bounds = sciopt.Bounds(np.maximum(lp.lower, np.where(mip.binary, 0.0, lp.lower)),
                           np.minimum(lp.upper, np.where(mip.binary, 1.0, lp.upper)))
    options = {"mip_rel_gap": float(gap_tol), "node_limit": int(node_cap),
               "mip_heuristic_run_feasibility_jump": False}

    def run(**extra):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    RuntimeWarning)
            return sciopt.milp(c=lp.objective, constraints=constraints,
                               integrality=mip.binary.astype(int), bounds=bounds,
                               options={**options, **extra})

    def nodes(res):
        return int(res.get("mip_node_count") or 0)

    def capped(res):
        return res.status == 1 or (res.status == 4 and nodes(res) >= node_cap)

    res = run()
    if res.status == 4 and not capped(res):
        res = run(presolve=False)
    if res.status in (2, 3):
        return {2: INFEASIBLE, 3: UNBOUNDED}[res.status], None, None, None, 0
    assert res.status == 0 or capped(res), res.message
    dual = res.get("mip_dual_bound")
    if res.x is None:
        return NODE_CAP, None, None, dual, nodes(res)
    x = res.x.copy()
    x[mip.binary] = np.round(x[mip.binary]) + 0.0
    objective = float(lp.objective @ x)
    if capped(res):
        return NODE_CAP, objective, x, dual, nodes(res)
    bound = objective if dual is None or not np.isfinite(dual) else min(dual, objective)
    return OPTIMAL, objective, x, bound, nodes(res)


def _reference_mips():
    """(mip, gap_tol, node_cap) cases: the hand knapsack, an infeasible MIP,
    an unbounded one (HiGHS answers "unbounded or infeasible" until the
    retry without presolve), a MIP with no binary column, a node-capped
    DEP, every master of one criterion-4 instance (rm-asd, single-cut and
    multicut L-shaped), one collapsed ordering DEP at gap 1e-4, and the
    recourse MIPs of one svc instance at every first stage."""
    cases = [(_hand_knapsack(), 0.0, DEFAULT_NODE_CAP),
             (_infeasible_mip(), 0.0, DEFAULT_NODE_CAP),
             (MixedBinaryProgram(lp=LinearProgram(
                 objective=[-1.0, 1.0], lhs=[[-1.0, 1.0]], senses=["<="], rhs=[1.0],
                 lower=[0.0, 0.0], upper=[np.inf, 1.0]), binary=[False, True]),
              0.0, DEFAULT_NODE_CAP),
             (MixedBinaryProgram(lp=hand_lp(), binary=np.zeros(2, dtype=bool)),
              0.0, DEFAULT_NODE_CAP)]
    capped = generate_knapsack(KnapsackGenSpec(10, 20, 10, seed=0, m1=5, m2=5))
    cases.append((build_dep_expectation(capped).program, 0.0, 1))

    class Recording(ScipyBackend):
        def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
            cases.append((mip, gap_tol, node_cap))
            return super().solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)

    knapsack = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=1, m1=3, m2=4))
    rm_asd_solve(knapsack, AsdBoundsConfig(rho=0.5, max_iters=15, backend=Recording()))
    for multicut in (False, True):
        lshaped_solve(knapsack, 0.4, -900.0, backend=Recording(), multicut=multicut)
    ordering = build_mssop_two_stage(generate_mssop_instance(4, 8, 5, seed=0)).problem
    cases.append((build_dep_absolute_semideviation(
        ordering, 0.5, collapse_mean_row=True).program, 1e-4, DEFAULT_NODE_CAP))
    svc = svc_problem(3)
    for k in range(2 ** svc.n1):
        scenario_costs(svc, np.array([(k >> j) & 1 for j in range(svc.n1)], dtype=float),
                       backend=Recording())
    return cases


def test_mip_answers_match_milp_bit_for_bit():
    cases = _reference_mips()
    statuses = set()
    for k, (mip, gap_tol, node_cap) in enumerate(cases):
        sol = ScipyBackend().solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)
        status, objective, x, bound, nodes = _milp_reference(mip, gap_tol, node_cap)
        statuses.add(status)
        assert sol.status == status, k
        assert _bits(sol.objective) == _bits(objective), k
        assert _bits(sol.x) == _bits(x), k
        assert _bits(sol.bound) == _bits(bound), k
        assert sol.nodes == nodes, k
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED, NODE_CAP} and len(cases) > 130


def test_scipy_mip_raises_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        sol = ScipyBackend().solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert [str(w.message) for w in caught] == []


def test_get_backend_resolution():
    assert isinstance(get_backend(None), ScipyBackend)
    inst = ScipyBackend()
    assert get_backend(inst) is inst


def test_backend_stats_accumulate():
    be = ScipyBackend()
    lp = LinearProgram(objective=[1.0], lhs=[[1.0]], senses=[">="],
                       rhs=[1.0], lower=[0.0], upper=[np.inf])
    be.solve_lp(lp)
    be.solve_lp(lp)
    assert be.stats.lp_solves == 2
    assert be.stats.as_dict()["lp_solves"] == 2


def test_counters_are_exact_under_threads():
    # svc recourse has paid slack columns, so scenario_costs solves MIPs
    problem = svc_problem(3)
    xs = [np.array([(k >> j) & 1 for j in range(5)], dtype=float) for k in range(32)]
    counters = {}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 4):
            backend = ScipyBackend()
            for x in xs:
                solve_subproblems(problem, 0.5, x, 10.0, backend, threads=threads)
                scenario_costs(problem, x, backend=backend, threads=threads)
            counters[threads] = backend.stats.as_dict()
    finally:
        sys.setswitchinterval(previous)
    assert counters[1]["lp_solves"] == counters[1]["mip_solves"] == 32 * 4
    assert counters[4] == counters[1]


def test_memo_backend_solves_each_program_once():
    inner = ScipyBackend()
    memo = MemoBackend(inner)
    assert memo.stats is inner.stats
    lp = LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]], senses=[">="],
                       rhs=[1.0], lower=[0.0, 0.0], upper=[np.inf, np.inf])
    first = memo.solve_lp(lp)
    again = memo.solve_lp(LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]],
                                        senses=[">="], rhs=[1.0], lower=[0.0, 0.0],
                                        upper=[np.inf, np.inf]))
    assert again is first and inner.stats.lp_solves == 1
    # a change in any field is a new program
    memo.solve_lp(LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]],
                                senses=["<="], rhs=[1.0], lower=[0.0, 0.0],
                                upper=[np.inf, np.inf]))
    assert inner.stats.lp_solves == 2
    mip = MixedBinaryProgram(lp=lp, binary=[True, False])
    a = memo.solve_mip(mip)
    assert memo.solve_mip(mip) is a
    assert memo.solve_mip(mip, gap_tol=1e-4) is not a
    assert memo.solve_mip(MixedBinaryProgram(lp=lp, binary=[False, True])) is not a
    assert inner.stats.mip_solves == 3
    with pytest.raises(ValueError):
        first.x[0] = 5.0
    with pytest.raises(ValueError):
        a.x[:] = 0.0
    with pytest.raises(ValueError):
        first.duals[0] = 0.0


def test_memo_backend_solves_once_under_threads():
    class Counting(ScipyBackend):
        def __init__(self):
            super().__init__()
            self.calls = 0
            self.lock = threading.Lock()

        def solve_lp(self, lp):
            with self.lock:
                self.calls += 1
            time.sleep(0.001)           # widen the window for a double solve
            return super().solve_lp(lp)

    inner = Counting()
    memo = MemoBackend(inner)
    lps = [LinearProgram(objective=[1.0], lhs=[[1.0]], senses=[">="],
                         rhs=[float(k)], lower=[0.0], upper=[np.inf])
           for k in range(4)]
    answers = [[] for _ in range(8)]

    def work(out):
        for _ in range(25):
            out.extend(memo.solve_lp(lp) for lp in lps)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in answers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert inner.calls == len(lps) == inner.stats.lp_solves
    assert all(len(out) == 100 for out in answers)
    assert {id(sol) for out in answers for sol in out} == {
        id(memo.solve_lp(lp)) for lp in lps}


# HiGHS's bindings are loaded from their file, not through scipy.optimize.
# The suite imports scipy.optimize first (this module does), so each load
# order runs in a fresh interpreter.
_SOLVE_WITHOUT_SCIPY_OPTIMIZE = """
import sys
from pathlib import Path
from riskshed import cli
from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve
from riskshed.backend import ScipyBackend
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
folder = Path(sys.argv[1])
assert cli.main(["gen", "knapsack", "--n1", "5", "--n2", "6", "--scens", "3",
                 "--seed", "4", "--m1", "3", "--m2", "4",
                 "--out", str(folder / "k.sp2.json")]) == 0
assert cli.main(["solve", "--in", str(folder / "k.sp2.json"), "--risk", "asd",
                 "--rho", "0.5", "--method", "dep",
                 "--out", str(folder / "k.result.json")]) == 0
backend = ScipyBackend()
rm_asd_solve(generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=1, m1=3, m2=4)),
             AsdBoundsConfig(rho=0.5, max_iters=15, backend=backend))
assert backend.stats.lp_solves > 0 and backend.stats.mip_solves > 0
print("loaded:", sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""

_SCIPY_OPTIMIZE_SOLVES_ON_THE_SAME_BINDINGS = """
import numpy as np
import scipy.optimize
from riskshed.backend import scipy_backend
assert scipy.optimize._highspy._core is scipy_backend.highs
assert scipy_backend.sciopt is scipy.optimize
assert scipy.optimize.linprog([-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[4.0],
                              bounds=[(0, 3), (0, 3)]).status == 0
assert scipy.optimize.milp([-1.0, -1.0], integrality=[1, 1],
                           bounds=scipy.optimize.Bounds(0, 3),
                           constraints=scipy.optimize.LinearConstraint(
                               [[1.0, 2.0]], -np.inf, 4.0)).status == 0
"""


def test_solves_load_neither_scipy_optimize_nor_scipy_sparse(tmp_path):
    proc = python_on_src("-c", _SOLVE_WITHOUT_SCIPY_OPTIMIZE
                         + _SCIPY_OPTIMIZE_SOLVES_ON_THE_SAME_BINDINGS,
                         str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "loaded: []" in proc.stdout.splitlines()


def test_scipy_optimize_imported_first_shares_its_bindings():
    proc = python_on_src("-c", "import scipy.optimize\n"
                         + _SCIPY_OPTIMIZE_SOLVES_ON_THE_SAME_BINDINGS)
    assert proc.returncode == 0, proc.stderr


def test_bindings_fall_back_to_the_ordinary_import(tmp_path):
    # A scipy whose folder holds no optimize/_highspy/_core.
    proc = python_on_src("-c", (
        "import sys, scipy\n"
        "scipy.__file__ = sys.argv[1] + '/__init__.py'\n"
        "from riskshed.backend import scipy_backend\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "assert scipy_backend.highs is sys.modules['scipy.optimize._highspy._core']\n"
        + _SCIPY_OPTIMIZE_SOLVES_ON_THE_SAME_BINDINGS), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
