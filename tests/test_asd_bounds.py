"""Bounding driver for the semideviation objective.

Oracle: the semideviation extensive form solved outright by scipy.  The
driver never sees it; its sandwich must still straddle that optimum, with
the upper bound achievable by the reported first stage.
"""
import numpy as np
import pytest

from riskshed import asd_bounds, model
from riskshed.asd_bounds import (
    AsdBoundsConfig, AsdBoundsState, adjust_target, excess_mean_cut,
    initialize, rm_asd_solve,
)
from riskshed.backend import ScipyBackend, SolveFailed, optimal
from riskshed.dep import build_dep_absolute_semideviation, build_dep_expectation
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.lshaped import CutPool, solve_subproblems
from riskshed.model import (RiskMeasure, RiskSpec, Scenario, TwoStageProblem,
                            evaluate_objective)
from riskshed.oracle import brute_force_optimum

from conftest import NoSolver, svc_problem


def small_knapsack(seed):
    return generate_knapsack(
        KnapsackGenSpec(n1=6, n2=6, num_scenarios=4, seed=seed, m1=3, m2=4))


def asd_dep_optimum(problem, rho):
    art = build_dep_absolute_semideviation(problem, rho,
                                           collapse_mean_row=True)
    sol = ScipyBackend().solve_mip(art.program, gap_tol=1e-9)
    assert sol.status == "optimal"
    return sol.objective


def test_sandwich_straddles_dep_optimum():
    for seed in (1, 2, 3, 4):
        problem = small_knapsack(seed)
        rho = 0.5
        state = rm_asd_solve(problem, AsdBoundsConfig(
            rho=rho, max_iters=15, backend=ScipyBackend()))
        opt = asd_dep_optimum(problem, rho)
        scale = max(1.0, abs(opt))
        assert state.lower <= opt + 1e-7 * scale, (seed, state.lower, opt)
        assert state.upper >= opt - 1e-7 * scale, (seed, state.upper, opt)
        # upper is achievable by x_best
        val = evaluate_objective(
            problem, state.x_best,
            RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=rho),
            backend=ScipyBackend())
        assert abs(val - state.upper) < 1e-7 * scale


def test_bounds_monotone_in_history():
    problem = small_knapsack(9)
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.7, max_iters=12, backend=ScipyBackend()))
    lowers = [row["lower"] for row in state.history]
    uppers = [row["upper"] for row in state.history]
    assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))
    assert state.gap <= state.history[0]["gap"] + 1e-9
    assert state.lower <= state.upper + 1e-12


def test_single_scenario_closes_at_init():
    # one scenario: semideviation collapses to the expectation, so the
    # risk-neutral solve already certifies both bounds
    problem = generate_knapsack(
        KnapsackGenSpec(n1=5, n2=5, num_scenarios=1, seed=3, m1=3, m2=4))
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.8, backend=ScipyBackend()))
    assert state.status == "converged"
    assert len(state.history) == 1
    assert abs(state.lower - state.upper) < state.epsilon
    assert abs(state.upper - state.q_expectation) < 1e-6 * max(
        1.0, abs(state.q_expectation))


def test_rho_zero_closes_at_init():
    problem = small_knapsack(5)
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.0, backend=ScipyBackend()))
    assert state.status == "converged"
    assert len(state.history) == 1
    neutral = ScipyBackend().solve_mip(
        build_dep_expectation(problem).program, gap_tol=1e-9)
    assert abs(state.upper - neutral.objective) < 1e-6 * max(
        1.0, abs(neutral.objective))


def test_adjust_target_steps_toward_heavy_side():
    state = AsdBoundsState(
        eta=10.0, lower=0.0, upper=1.0, x_hat=np.zeros(2),
        x_best=np.zeros(2), totals=np.array([20.0, 20.0, 1.0]),
        q_expectation=10.0, xi=2.0, epsilon=1e-4)

    class P:  # only probabilities are consulted
        probabilities = np.array([0.3, 0.3, 0.4])

    adjust_target(state, P)
    assert state.s_plus == [0, 1] and state.s_minus == [2]
    assert state.eta == 12.0            # mass 0.6 above vs 0.4 below

    state.eta = 30.0
    state.totals = np.array([20.0, 20.0, 1.0])
    adjust_target(state, P)
    assert state.eta == 28.0            # everything below: step down


def test_adjust_target_stall_halves_step():
    state = AsdBoundsState(
        eta=5.0, lower=0.0, upper=1.0, x_hat=np.zeros(1),
        x_best=np.zeros(1), totals=np.array([10.0, 0.0]),
        q_expectation=5.0, xi=4.0, epsilon=1e-4)

    class P:
        probabilities = np.array([0.5, 0.5])

    for k in range(3):                  # balanced masses: three ties
        adjust_target(state, P)
    assert state.eta == 5.0
    assert state.xi == 2.0              # halved after the third stall
    assert state.stalls == 0


def test_excess_mean_cut_matches_max_aggregate_at_iterate():
    problem = small_knapsack(7)
    backend = ScipyBackend()
    rho, eta = 0.5, -50.0
    x = np.zeros(problem.n1)
    cut = excess_mean_cut(problem, rho, x, eta, backend=backend)
    assert cut.origin == "excess-mean"
    subs = solve_subproblems(problem, rho, x, eta, backend)
    values = np.array([s[0] for s in subs])
    p = problem.probabilities
    q_bar = float(p @ values)
    want = float(p @ np.maximum(values, q_bar))
    got = cut.rhs_at(eta) - cut.coef @ x
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_initialize_seeds_eta_at_neutral_value():
    problem = small_knapsack(11)
    state = initialize(problem, AsdBoundsConfig(
        rho=0.5, backend=ScipyBackend()))
    assert state.eta == state.q_expectation
    assert state.lower <= state.upper + 1e-12
    assert state.lower >= state.q_expectation - 1e-9
    assert len(state.pool) > 0           # warm-started inner pool
    assert state.history[0]["event"] == "init"


def highs_neutral_start(problem):
    sol = optimal(ScipyBackend().solve_mip(build_dep_expectation(problem).program),
                  "risk-neutral extensive form")
    return sol.x[:problem.n1], sol.objective


@pytest.mark.parametrize("shape, seeds", [
    ((6, 6, 4), range(20)),         # acceptance criterion 4
    ((10, 12, 5), range(4)),        # n2 at the enumeration cap
], ids=["criterion-4", "K.10.12.5"])
def test_neutral_start_enumerates_the_highs_optimum(shape, seeds):
    for seed in seeds:
        problem = generate_knapsack(KnapsackGenSpec(*shape, seed=seed, m1=3, m2=4))
        x_hat, q_exp = asd_bounds._neutral_start(problem, NoSolver())
        want_x, want_q = highs_neutral_start(problem)
        # HiGHS's snapped x can hold -0.0 for a binary at 0 (K.10.12.5 seed
        # 2); enumeration gives +0.0, so x is compared by value
        assert np.array_equal(x_hat, want_x) and not np.signbit(x_hat).any(), seed
        assert q_exp.hex() == want_q.hex(), seed


def one_scenario_problem(first_stage_rhs):
    # x >= first_stage_rhs, and y >= 2 asks more of a binary y than it has
    s = Scenario(probability=1.0, cost=[1.0], technology=[[0.0]],
                 recourse=[[1.0]], rhs=[2.0])
    return TwoStageProblem(first_stage_cost=[1.0], first_stage_matrix=[[1.0]],
                           first_stage_rhs=[first_stage_rhs], scenarios=[s])


@pytest.mark.parametrize("first_stage_rhs", [0.0, 2.0],
                         ids=["no-recourse", "no-first-stage"])
def test_neutral_start_infeasible_like_highs(first_stage_rhs):
    problem = one_scenario_problem(first_stage_rhs)
    with pytest.raises(SolveFailed) as highs:
        highs_neutral_start(problem)
    with pytest.raises(SolveFailed) as enumerated:
        initialize(problem, AsdBoundsConfig(rho=0.5, backend=NoSolver()))
    assert str(enumerated.value) == str(highs.value)
    assert enumerated.value.status == highs.value.status == "infeasible"


def zero_probability_problem():
    # the scenario of probability 0 fits recourse only when some x_i = 1, so
    # it rules out x = 0, the cheapest first stage; the optimum is (0, 0, 1)
    always = Scenario(probability=1.0, cost=[1.0], technology=[[0.0, 0.0, 0.0]],
                      recourse=[[1.0]], rhs=[0.0])
    strict = Scenario(probability=0.0, cost=[1.0], technology=[[1.0, 1.0, 1.0]],
                      recourse=[[1.0]], rhs=[2.0])
    return TwoStageProblem(first_stage_cost=[4.0, 2.0, 1.0],
                           first_stage_matrix=[[0.0, 0.0, 0.0]],
                           first_stage_rhs=[0.0], scenarios=[always, strict])


@pytest.mark.parametrize("pairs", [1 << 18, 4], ids=["one-chunk", "chunks-of-2"])
def test_neutral_start_respects_a_zero_probability_scenario(pairs, monkeypatch):
    # in chunks of two x, the optimum shares its chunk with the ruled-out x = 0
    monkeypatch.setattr(model, "ENUMERATION_PAIRS", pairs)
    problem = zero_probability_problem()
    x_hat, q_exp = asd_bounds._neutral_start(problem, NoSolver())
    want_x, want_q = highs_neutral_start(problem)
    assert np.array_equal(x_hat, want_x) and x_hat.tolist() == [0.0, 0.0, 1.0]
    assert q_exp.hex() == want_q.hex()


def test_neutral_start_solves_mixed_recourse_on_the_backend():
    # svc recourse has continuous slack columns: past the enumeration
    problem = svc_problem(0)
    backend = ScipyBackend()
    x_hat, q_exp = asd_bounds._neutral_start(problem, backend)
    assert backend.stats.mip_solves == 1 and backend.stats.lp_solves == 0
    want_x, want_q = highs_neutral_start(problem)
    assert x_hat.tobytes() == want_x.tobytes() and q_exp == want_q


def test_fixed_point_iterations_issue_no_solves():
    # seed 0 stops moving after the first iterations: later ones rebuild the
    # same cuts and master, which the memo and the pool answer without HiGHS
    problem = small_knapsack(0)
    runs = {}
    for iters in (5, 15):
        backend = ScipyBackend()
        state = rm_asd_solve(problem, AsdBoundsConfig(
            rho=0.5, max_iters=iters, backend=backend))
        assert state.status == "iteration_cap"
        runs[iters] = (backend.stats.as_dict(), state)
    assert runs[5][0] == runs[15][0]
    short, full = runs[5][1], runs[15][1]
    assert len(short.history) == 6
    assert short.history == full.history[:6]
    assert sum(row["cuts_added"] for row in full.history) == len(full.pool)
    assert full.history[-1]["cuts_added"] == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_repeated_iterations_are_replayed(monkeypatch, seed):
    # eta ties on seed 0 and alternates between two values on seed 1; either
    # way the iterations after the first few repeat an earlier body, which is
    # replayed without building its cut or master again
    calls = {"build_master": 0, "excess_mean_cut": 0}

    def counting(name):
        inner = getattr(asd_bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(asd_bounds, name, counting(name))
    problem = small_knapsack(seed)
    runs = {}
    for iters in (5, 15):
        before = dict(calls)
        state = rm_asd_solve(problem, AsdBoundsConfig(
            rho=0.5, max_iters=iters, backend=ScipyBackend()))
        assert state.status == "iteration_cap"
        runs[iters] = ({k: calls[k] - before[k] for k in calls}, state.history)
    assert runs[5][0] == runs[15][0]
    assert runs[5][0]["build_master"] < 5
    assert runs[5][1] == runs[15][1][:6]
    assert all(row["cuts_added"] == 0 for row in runs[15][1][6:])


def test_cuts_added_counts_pool_entries():
    problem = small_knapsack(1)
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.5, max_iters=6, backend=ScipyBackend()))
    assert sum(row["cuts_added"] for row in state.history) == len(state.pool)


def test_knapsack_seed_659_master_solves():
    # HiGHS reports a solve error on one bounding master of this instance
    # unless presolve is switched off; the backend retries without it
    problem = generate_knapsack(
        KnapsackGenSpec(n1=6, n2=6, num_scenarios=4, seed=659, m1=3, m2=4))
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.5, max_iters=15, backend=ScipyBackend()))
    assert state.status in ("converged", "iteration_cap")
    tol = 1e-9 * max(1.0, abs(state.upper))
    assert state.q_expectation - tol <= state.lower <= state.upper + tol
    opt = asd_dep_optimum(problem, 0.5)
    scale = max(1.0, abs(opt))
    assert state.lower <= opt + 1e-7 * scale
    assert opt <= state.upper + 1e-7 * scale


# svc seed, rho: runs of the bounding driver whose lower bound passes the
# enumerated optimum (ROADMAP item 1); each run reports `converged`.
SVC_OVERSHOOT = [(0, 0.9), (7, 0.5), (8, 0.9), (12, 0.5), (18, 0.9)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the excess-mean cut shares theta with the classic "
                          "cuts, so master + rho*eta is not a proven bound")
def test_lower_bound_stays_below_the_svc_optimum():
    above = []
    for seed, rho in SVC_OVERSHOOT:
        problem = svc_problem(seed)
        state = rm_asd_solve(problem, AsdBoundsConfig(
            rho=rho, max_iters=12, backend=ScipyBackend()))
        opt = brute_force_optimum(
            problem, RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=rho),
            backend=ScipyBackend()).objective
        if state.lower > opt + 1e-7 * max(1.0, abs(opt)):
            above.append((seed, rho, state.lower, opt, state.status))
    assert not above, above


def test_history_row_fields():
    problem = small_knapsack(13)
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.6, max_iters=3, backend=ScipyBackend()))
    keys = {"iteration", "eta", "lower", "upper", "gap", "s_plus",
            "s_minus", "cuts_added", "event"}
    for row in state.history:
        assert set(row) == keys
    assert [row["iteration"] for row in state.history] == list(
        range(len(state.history)))


def test_iteration_cap_status():
    problem = small_knapsack(15)
    state = rm_asd_solve(problem, AsdBoundsConfig(
        rho=0.9, max_iters=1, epsilon=1e-12, backend=ScipyBackend()))
    assert state.status in ("iteration_cap", "converged")
    if state.status == "iteration_cap":
        assert len(state.history) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        AsdBoundsConfig(rho=1.5)
    with pytest.raises(ValueError):
        AsdBoundsConfig(rho=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        AsdBoundsConfig(rho=0.5, xi=-1.0)


@pytest.mark.parametrize("name", ["epsilon", "xi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AsdBoundsConfig(rho=0.5, **{name: value})
