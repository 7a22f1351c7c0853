"""Core model layer: risk functionals, scenario evaluation, validation."""
import itertools

import numpy as np
import pytest

from riskshed.backend import ScipyBackend
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import (
    MAX_ENUMERATED_N2, InfeasibleSecondStage, RiskMeasure, RiskSpec, Scenario,
    TwoStageProblem, ValidationError, evaluate_objective,
    evaluate_scenario_cost, evaluate_solution, risk_functional,
    scenario_costs, second_stage_program, validate,
)

from conftest import NoSolver, covering_problem, greedy_feasible_point

HIGHS = ScipyBackend()
NO_SOLVER = NoSolver()


def test_risk_spec_validation():
    RiskSpec(RiskMeasure.EXPECTATION)
    RiskSpec("absolute-semideviation", rho=0.5)
    with pytest.raises(ValidationError):
        RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=1.5)
    with pytest.raises(ValidationError):
        RiskSpec(RiskMeasure.EXPECTED_EXCESS, rho=0.5)          # needs eta
    with pytest.raises(ValidationError):
        RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=0.5, eta=1.0)


def test_risk_functional_hand_values():
    f = np.array([10.0, 20.0, 40.0])
    p = np.array([0.5, 0.3, 0.2])
    fbar = 0.5 * 10 + 0.3 * 20 + 0.2 * 40          # 19
    exp = risk_functional(f, p, RiskSpec(RiskMeasure.EXPECTATION))
    assert abs(exp - fbar) < 1e-12

    # EE(eta=15): excess = .3*5 + .2*25 = 6.5 -> 19 + .4*6.5 = 21.6
    ee = risk_functional(f, p, RiskSpec("expected-excess", rho=0.4, eta=15.0))
    assert abs(ee - (fbar + 0.4 * 6.5)) < 1e-12

    # ModEE: .6*19 + .4*6.5 = 14.0
    mee = risk_functional(
        f, p, RiskSpec("modified-expected-excess", rho=0.4, eta=15.0))
    assert abs(mee - (0.6 * fbar + 0.4 * 6.5)) < 1e-12

    # ASD: upper deviations .3*1 + .2*21 = 4.5 -> 19 + .5*4.5 = 21.25
    asd = risk_functional(f, p, RiskSpec("absolute-semideviation", rho=0.5))
    assert abs(asd - (fbar + 0.5 * 4.5)) < 1e-12


def test_risk_functional_second_stage_excess():
    # same data, but the target applies to the recourse cost only and the
    # first-stage cost re-enters through the risk term
    f = np.array([10.0, 20.0])
    p = np.array([0.5, 0.5])
    cx = 4.0
    phi = f - cx
    spec = RiskSpec("expected-excess", rho=0.5, eta=10.0)
    val = risk_functional(f, p, spec, first_stage_cost=cx,
                          excess_on="second_stage")
    excess = 0.5 * max(phi[0] - 10.0, 0.0) + 0.5 * max(phi[1] - 10.0, 0.0)
    assert abs(val - (np.mean(f) + 0.5 * (cx + excess))) < 1e-12
    with pytest.raises(ValidationError):
        risk_functional(f, p, spec, excess_on="second_stage")


def test_rho_zero_recovers_expectation():
    rng = np.random.default_rng(0)
    f = rng.normal(size=9)
    p = rng.dirichlet(np.ones(9))
    base = risk_functional(f, p, RiskSpec(RiskMeasure.EXPECTATION))
    asd = risk_functional(f, p, RiskSpec("absolute-semideviation", rho=0.0))
    ee = risk_functional(f, p, RiskSpec("expected-excess", rho=0.0, eta=0.0))
    assert abs(asd - base) < 1e-12
    assert abs(ee - base) < 1e-12


def test_single_scenario_asd_is_expectation():
    f = np.array([17.25])
    p = np.array([1.0])
    for rho in (0.0, 0.3, 1.0):
        v = risk_functional(f, p, RiskSpec("absolute-semideviation", rho=rho))
        assert abs(v - 17.25) < 1e-12


def test_scenario_costs_are_second_stage_only():
    rng = np.random.default_rng(5)
    problem = covering_problem(rng)
    x = np.zeros(problem.n1)
    phi = scenario_costs(problem, x)
    # x = 0 kills the first-stage term; per-scenario costs must match
    for k in range(problem.num_scenarios):
        assert abs(phi[k] - evaluate_scenario_cost(problem, x, k)) < 1e-12
    obj = evaluate_objective(problem, x, RiskSpec(RiskMeasure.EXPECTATION))
    probs = problem.probabilities
    assert abs(obj - float(probs @ phi)) < 1e-9


def test_evaluate_objective_adds_first_stage_cost():
    rng = np.random.default_rng(6)
    problem = covering_problem(rng)
    x = greedy_feasible_point(problem)
    assert x.sum() > 0 and problem.first_stage_feasible(x)
    phi = scenario_costs(problem, x)
    cx = float(problem.first_stage_cost @ x)
    obj = evaluate_objective(problem, x, RiskSpec(RiskMeasure.EXPECTATION))
    assert abs(obj - (cx + problem.probabilities @ phi)) < 1e-9


def test_evaluate_solution_breakdown():
    rng = np.random.default_rng(8)
    problem = covering_problem(rng)
    x = greedy_feasible_point(problem)
    spec = RiskSpec("absolute-semideviation", rho=0.7)
    sol = evaluate_solution(problem, x, spec)
    assert np.allclose(sol.x, x)
    assert abs(sol.first_stage_cost - problem.first_stage_cost @ x) < 1e-12
    # totals = cx + phi scenario by scenario
    phi = scenario_costs(problem, x)
    assert np.allclose(sol.scenario_totals, sol.first_stage_cost + phi,
                       atol=1e-9)
    assert abs(sol.expectation
               - problem.probabilities @ sol.scenario_totals) < 1e-9
    assert abs(sol.objective - (sol.expectation + sol.risk_term)) < 1e-9
    direct = evaluate_objective(problem, x, spec)
    assert abs(sol.objective - direct) < 1e-9


def test_evaluate_rejects_infeasible_x():
    rng = np.random.default_rng(9)
    problem = covering_problem(rng)
    # covering rows are -A x >= -b with negative data: huge x breaks them
    bad = np.full(problem.n1, 50.0)
    assert not problem.first_stage_feasible(bad)
    with pytest.raises(ValidationError):
        evaluate_objective(problem, bad, RiskSpec(RiskMeasure.EXPECTATION))


def test_infeasible_second_stage_raises():
    # T x + W y >= h with W = 0 and h unreachable
    s = Scenario(probability=1.0, cost=np.array([1.0]),
                 technology=np.zeros((1, 1)), recourse=np.zeros((1, 1)),
                 rhs=np.array([5.0]), integrality=np.array([False]))
    problem = TwoStageProblem(
        first_stage_cost=np.array([0.0]),
        first_stage_matrix=np.zeros((0, 1)),
        first_stage_rhs=np.zeros(0),
        scenarios=[s],
        first_stage_integrality=np.array([True]))
    with pytest.raises(InfeasibleSecondStage):
        evaluate_scenario_cost(problem, np.zeros(1), 0)


def test_validate_flags_bad_probabilities():
    rng = np.random.default_rng(10)
    problem = covering_problem(rng)
    problem.scenarios[0].probability = 0.9  # sum now off
    assert any("probabilit" in msg for msg in validate(problem))


def assert_enumeration_matches_highs(problem):
    """At every first-stage-feasible binary x, the enumerated recourse value
    is HiGHS's objective bit for bit, or both find no recourse."""
    infeasible = 0
    for bits in itertools.product((0.0, 1.0), repeat=problem.n1):
        x = np.array(bits)
        if not problem.first_stage_feasible(x):
            continue
        for k in range(problem.num_scenarios):
            sol = HIGHS.solve_mip(second_stage_program(problem, x, k))
            if sol.status == "infeasible":
                infeasible += 1
                with pytest.raises(InfeasibleSecondStage):
                    evaluate_scenario_cost(problem, x, k, backend=NO_SOLVER)
                continue
            assert sol.status == "optimal"
            got = evaluate_scenario_cost(problem, x, k, backend=NO_SOLVER)
            assert got == sol.objective, (x, k)
    return infeasible


def test_enumerated_recourse_is_bit_identical_to_highs():
    # the criterion-4 batch of the acceptance suite, then covering draws
    for seed in range(20):
        assert_enumeration_matches_highs(generate_knapsack(
            KnapsackGenSpec(6, 6, 4, seed=seed, m1=3, m2=4)))
    rng = np.random.default_rng(30)
    for _ in range(4):
        assert_enumeration_matches_highs(covering_problem(rng, binary_y=True))


def test_enumerated_recourse_infeasible_like_highs():
    # x + y1 + y2 >= 2 and x - y1 - y2 >= -1: no y fits at x = 0, and
    # y = (1, 0) is the cheapest fit at x = 1
    s = Scenario(probability=1.0, cost=np.array([1.0, 2.0]),
                 technology=np.array([[1.0], [1.0]]),
                 recourse=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                 rhs=np.array([2.0, -1.0]))
    problem = TwoStageProblem(
        first_stage_cost=np.array([0.0]), first_stage_matrix=np.zeros((0, 1)),
        first_stage_rhs=np.zeros(0), scenarios=[s])
    assert assert_enumeration_matches_highs(problem) == 1
    assert evaluate_scenario_cost(problem, np.ones(1), 0,
                                  backend=NO_SOLVER) == 1.0
    with pytest.raises(InfeasibleSecondStage, match=r"scenario 0 .* x=\[0.0\]"):
        evaluate_scenario_cost(problem, np.zeros(1), 0, backend=NO_SOLVER)


def test_small_binary_recourse_skips_the_backend():
    rng = np.random.default_rng(31)

    def calls(problem):
        spy = ScipyBackend()   # its counters record every solve it is given
        evaluate_scenario_cost(problem, np.zeros(problem.n1), 0, backend=spy)
        return spy.stats.lp_solves + spy.stats.mip_solves

    binary = covering_problem(rng, n2=MAX_ENUMERATED_N2)
    assert calls(covering_problem(rng)) == 0
    assert calls(binary) == 0
    mixed = covering_problem(rng)
    mixed.scenarios[0].integrality[-1] = False
    assert calls(mixed) == 1
    assert calls(covering_problem(rng, n2=MAX_ENUMERATED_N2 + 1)) == 1
