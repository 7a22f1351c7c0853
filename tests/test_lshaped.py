"""Shaped decomposition for the total-cost excess objective.

Independent route: the extensive form with second-stage binaries
relaxed, solved whole.  The decomposition must meet that optimum, and its
cuts must be tight at the generating iterate and remain valid after eta
rebasing.
"""
import dataclasses
import itertools
import threading

import numpy as np
import pytest

from riskshed.backend import ScipyBackend
from riskshed.dep import build_dep_modified_expected_excess
from riskshed.lshaped import (
    THETA_FLOOR, CutPool, OptimalityCut, build_master, build_subproblem_lp,
    cuts_from_duals, lshaped_solve, solve_subproblems,
)

from conftest import covering_problem, greedy_feasible_point, relax_second_stage


def relaxed_dep_optimum(problem, rho, eta):
    art = relax_second_stage(build_dep_modified_expected_excess(problem, rho, eta))
    sol = ScipyBackend().solve_mip(art.program)
    assert sol.status == "optimal"
    return sol.objective


def theta_true(problem, rho, x, eta, backend):
    subs = solve_subproblems(problem, rho, x, eta, backend)
    return float(sum(problem.probabilities[k] * subs[k][0]
                     for k in range(problem.num_scenarios)))


def test_converges_to_relaxed_dep_optimum():
    rng = np.random.default_rng(210)
    backend = ScipyBackend()
    for trial in range(6):
        problem = covering_problem(rng, num_scenarios=int(rng.integers(2, 5)))
        rho = float(rng.uniform(0.1, 0.9))
        eta = float(rng.normal(-40.0, 15.0))
        res = lshaped_solve(problem, rho, eta, backend=backend)
        assert res.status == "converged"
        want = relaxed_dep_optimum(problem, rho, eta)
        tol = 1e-6 * max(1.0, abs(want))
        assert abs(res.master_objective - want) < tol, (trial, res.master_objective, want)
        # reported iterate achieves the optimum too
        value = ((1.0 - rho) * float(problem.first_stage_cost @ res.x)
                 + theta_true(problem, rho, res.x, eta, backend))
        assert abs(value - want) < tol, (trial, value, want)


def test_cut_tight_at_generating_point():
    rng = np.random.default_rng(211)
    backend = ScipyBackend()
    for trial in range(8):
        problem = covering_problem(rng, num_scenarios=3)
        rho = float(rng.uniform(0.1, 0.9))
        eta = float(rng.normal(-30.0, 10.0))
        x = greedy_feasible_point(problem)
        subs = solve_subproblems(problem, rho, x, eta, backend)
        value = float(sum(problem.probabilities[k] * subs[k][0]
                          for k in range(3)))
        (cut,) = cuts_from_duals(problem, subs)
        # theta >= rhs_at(eta) - coef @ x holds with equality at x
        assert abs(cut.rhs_at(eta) - cut.coef @ x - value) < 1e-7 * max(1.0, abs(value))


def test_multicut_tight_per_scenario():
    rng = np.random.default_rng(212)
    backend = ScipyBackend()
    problem = covering_problem(rng, num_scenarios=4)
    x = greedy_feasible_point(problem)
    subs = solve_subproblems(problem, 0.5, x, -25.0, backend)
    cuts = cuts_from_duals(problem, subs, multicut=True)
    assert [c.scenario for c in cuts] == [0, 1, 2, 3]
    for k, cut in enumerate(cuts):
        piece = problem.probabilities[k] * subs[k][0]
        assert abs(cut.rhs_at(-25.0) - cut.coef @ x - piece) < 1e-7


def test_subproblems_return_their_linearization():
    # each scenario's (value, coef, rhs_base, eta_coef) is exact at the
    # generating (x, eta) and stays at or below the value at another eta
    rng = np.random.default_rng(221)
    backend = ScipyBackend()
    problem = covering_problem(rng, num_scenarios=3)
    rho, eta, eta2 = 0.4, -25.0, -40.0
    x = greedy_feasible_point(problem)
    subs = solve_subproblems(problem, rho, x, eta, backend)
    later = solve_subproblems(problem, rho, x, eta2, backend)
    for (value, coef, rhs_base, eta_coef), (value2, *_) in zip(subs, later):
        tol = 1e-7 * max(1.0, abs(value))
        assert abs(rhs_base - eta_coef * eta - coef @ x - value) < tol
        assert rhs_base - eta_coef * eta2 - coef @ x <= value2 + tol


def test_cut_valid_after_eta_rebase():
    # duals stay feasible when only the rhs moves, so a cut generated at
    # eta1 must underestimate the recourse at eta2 for every feasible x
    rng = np.random.default_rng(213)
    backend = ScipyBackend()
    problem = covering_problem(rng, n1=4, num_scenarios=2)
    eta1, eta2 = -20.0, -35.0
    rho = 0.6
    x0 = greedy_feasible_point(problem)
    subs = solve_subproblems(problem, rho, x0, eta1, backend)
    (cut,) = cuts_from_duals(problem, subs)
    for bits in itertools.product((0.0, 1.0), repeat=problem.n1):
        x = np.array(bits)
        if not problem.first_stage_feasible(x):
            continue
        for eta in (eta1, eta2, 0.0):
            truth = theta_true(problem, rho, x, eta, backend)
            assert cut.rhs_at(eta) - cut.coef @ x <= truth + 1e-7 * max(1.0, abs(truth))


def test_subproblem_lp_shape_and_eta_row():
    rng = np.random.default_rng(214)
    problem = covering_problem(rng, n1=3, n2=4, m2=5, num_scenarios=2)
    x = np.zeros(3)
    lp, meta = build_subproblem_lp(problem, 0.4, 0, x, eta=-10.0)
    s = problem.scenarios[0]
    nb = int(s.integrality.sum())
    assert lp.num_vars == s.n2 + 1
    assert lp.num_rows == s.m2 + 1 + nb
    assert meta["eta_row"] == s.m2
    # excess row at x = 0: -q'y + v >= c'x - eta = 10
    assert abs(lp.rhs[s.m2] - 10.0) < 1e-12
    assert np.allclose(meta["x_block"][s.m2], -problem.first_stage_cost)


def test_master_includes_cuts_and_floor():
    rng = np.random.default_rng(215)
    problem = covering_problem(rng, num_scenarios=2)
    pool = CutPool()
    pool.add(OptimalityCut(coef=np.zeros(problem.n1), rhs_base=-5.0,
                           eta_coef=0.0))
    program, nt = build_master(problem, 0.5, pool, eta=0.0)
    assert nt == 1
    lp = program.lp
    assert lp.num_vars == problem.n1 + 1
    assert lp.num_rows == problem.m1 + 1
    assert lp.lower[-1] == THETA_FLOOR
    assert not program.binary[-1]
    sol = ScipyBackend().solve_mip(program)
    assert sol.status == "optimal"
    # the only cut forces theta >= -5
    assert sol.x[-1] >= -5.0 - 1e-9


def test_multicut_master_rows_hold_each_cut():
    rng = np.random.default_rng(222)
    problem = covering_problem(rng, num_scenarios=3)
    n1, m1 = problem.n1, problem.m1
    pool = CutPool()
    for scenario in (2, 0, None, 1):
        pool.add(OptimalityCut(coef=rng.normal(size=n1), rhs_base=rng.normal(),
                               eta_coef=rng.uniform(), scenario=scenario))
    program, nt = build_master(problem, 0.5, pool, eta=-7.0, multicut=True)
    lp = program.lp
    assert nt == 3 and lp.num_rows == m1 + 4
    for i, cut in enumerate(pool.cuts):
        theta = np.zeros(nt)
        theta[cut.scenario or 0] = 1.0
        assert np.array_equal(lp.lhs[m1 + i], np.concatenate([cut.coef, theta]))
        assert lp.rhs[m1 + i] == cut.rhs_at(-7.0)
    # no cut and no first-stage row: a master without rows
    free = dataclasses.replace(problem, first_stage_matrix=np.zeros((0, n1)),
                               first_stage_rhs=np.zeros(0))
    program, _ = build_master(free, 0.5, CutPool(), eta=0.0, multicut=True)
    assert program.lp.lhs.shape == (0, n1 + 3) and program.lp.rhs.shape == (0,)


def test_cut_pool_rejects_identical_cuts():
    pool = CutPool()
    cut = OptimalityCut(coef=np.array([1.0, -2.0]), rhs_base=3.0, eta_coef=0.5)
    assert pool.add(cut)
    assert not pool.add(OptimalityCut(coef=np.array([1.0, -2.0]), rhs_base=3.0,
                                      eta_coef=0.5, origin="excess-mean"))
    assert len(pool) == 1
    # any differing field makes a new cut
    assert pool.add(OptimalityCut(coef=cut.coef, rhs_base=3.0, eta_coef=0.5,
                                  scenario=0))
    assert pool.add(OptimalityCut(coef=cut.coef, rhs_base=3.0 + 1e-12,
                                  eta_coef=0.5))
    assert pool.add(OptimalityCut(coef=np.array([1.0, -2.0 + 1e-15]),
                                  rhs_base=3.0, eta_coef=0.5))
    assert len(pool) == 4
    assert not CutPool(cuts=[cut]).add(cut)


def test_multicut_matches_single_cut_optimum():
    rng = np.random.default_rng(216)
    backend = ScipyBackend()
    problem = covering_problem(rng, num_scenarios=3)
    rho, eta = 0.35, -30.0
    single = lshaped_solve(problem, rho, eta, backend=backend)
    multi = lshaped_solve(problem, rho, eta, backend=backend, multicut=True)
    assert single.status == multi.status == "converged"
    scale = max(1.0, abs(single.master_objective))
    assert abs(single.master_objective - multi.master_objective) < 1e-5 * scale
    # multicut needs no more iterations on this family
    assert multi.iterations <= single.iterations + 2


def test_warm_start_reuses_pool():
    rng = np.random.default_rng(217)
    backend = ScipyBackend()
    problem = covering_problem(rng, num_scenarios=3)
    rho, eta = 0.5, -25.0
    cold = lshaped_solve(problem, rho, eta, backend=backend)
    pool = CutPool()
    warm = lshaped_solve(problem, rho, eta, backend=backend,
                         warm_x=cold.x, pool=pool)
    assert warm.status == "converged"
    assert warm.cuts is pool and len(pool) > 0
    scale = max(1.0, abs(cold.master_objective))
    assert abs(warm.master_objective - cold.master_objective) < 1e-5 * scale
    assert warm.iterations <= cold.iterations


def test_iteration_cap_reported():
    rng = np.random.default_rng(218)
    problem = covering_problem(rng, num_scenarios=3)
    res = lshaped_solve(problem, 0.5, -25.0, backend=ScipyBackend(),
                        max_iters=1)
    assert res.status == "iteration_cap"
    assert res.iterations == 1
    assert len(res.history) == 1


def test_history_monotone_master():
    rng = np.random.default_rng(219)
    problem = covering_problem(rng, num_scenarios=4)
    backend, rho, eta = ScipyBackend(), 0.45, -30.0
    res = lshaped_solve(problem, rho, eta, backend=backend)
    masters = [row["master"] for row in res.history]
    assert all(b >= a - 1e-7 for a, b in zip(masters, masters[1:]))
    best = ((1.0 - rho) * float(problem.first_stage_cost @ res.x)
            + theta_true(problem, rho, res.x, eta, backend))
    assert res.history[-1]["gap"] <= 1e-6 * max(1.0, abs(best))


def test_subproblems_run_on_the_given_worker_count(monkeypatch):
    problem = covering_problem(np.random.default_rng(220), num_scenarios=3)
    backend = ScipyBackend()
    on_main, solve_lp = [], backend.solve_lp

    def spy(lp):
        on_main.append(threading.current_thread() is threading.main_thread())
        return solve_lp(lp)

    monkeypatch.setattr(backend, "solve_lp", spy)
    solve_subproblems(problem, 0.5, greedy_feasible_point(problem), -30.0,
                      backend, threads=2)
    assert on_main and not any(on_main)
