"""Core model layer: risk functionals, scenario evaluation, and the
contract every TwoStageProblem is checked against when it is built."""
import dataclasses
import itertools
import re

import numpy as np
import pytest

from riskshed.backend import ScipyBackend, SolveFailed
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import (
    MAX_ENUMERATED_N2, RiskMeasure, RiskSpec, Scenario, TwoStageProblem,
    ValidationError, evaluate_objective,
    evaluate_scenario_cost, evaluate_solution, risk_functional,
    scenario_costs, second_stage_program,
)

from conftest import (NoSolver, covering_problem, greedy_feasible_point,
                      unbounded_recourse_problem)

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
    ee = risk_functional(f, p, RiskSpec("expected-excess", rho=0.4, eta=15.0),
                         first_stage_cost=0.0)
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
    val = risk_functional(f, p, spec, first_stage_cost=cx)
    excess = 0.5 * max(phi[0] - 10.0, 0.0) + 0.5 * max(phi[1] - 10.0, 0.0)
    assert abs(val - (np.mean(f) + 0.5 * (cx + excess))) < 1e-12
    with pytest.raises(ValidationError):
        risk_functional(f, p, spec)


def test_rho_zero_recovers_expectation():
    rng = np.random.default_rng(0)
    f = rng.normal(size=9)
    p = rng.dirichlet(np.ones(9))
    base = risk_functional(f, p, RiskSpec(RiskMeasure.EXPECTATION))
    asd = risk_functional(f, p, RiskSpec("absolute-semideviation", rho=0.0))
    ee = risk_functional(f, p, RiskSpec("expected-excess", rho=0.0, eta=0.0),
                         first_stage_cost=0.0)
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
    # totals = cx + phi scenario by scenario
    phi = scenario_costs(problem, x)
    assert np.allclose(sol.scenario_totals,
                       problem.first_stage_cost @ x + phi, atol=1e-9)
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
    with pytest.raises(SolveFailed, match="scenario 0 has no feasible recourse") as info:
        evaluate_scenario_cost(problem, np.zeros(1), 0)
    assert info.value.status == "infeasible"


def test_validate_flags_bad_probabilities():
    rng = np.random.default_rng(10)
    problem = covering_problem(rng)
    problem.scenarios[0].probability = 0.9  # sum now off
    with pytest.raises(ValidationError, match="probabilit"):
        dataclasses.replace(problem)    # a new problem on the same scenarios


def scenario(**change):
    """A one-row scenario with two recourse columns over two first-stage
    columns, with the fields in change replaced."""
    return Scenario(**{**dict(probability=0.5, cost=[1.0, 2.0],
                              technology=[[1.0, 0.0]], recourse=[[1.0, 1.0]],
                              rhs=[1.0]), **change})


def one_row_problem(first=(), second=()):
    """Two-scenario problem with the problem fields in first and the second
    scenario's fields in second replaced."""
    data = dict(first_stage_cost=[1.0, 1.0], first_stage_matrix=[[1.0, 1.0]],
                first_stage_rhs=[1.0], scenarios=[scenario(), scenario(**dict(second))])
    return TwoStageProblem(**{**data, **dict(first)})


@pytest.mark.parametrize("first, second, message", [
    ({"first_stage_cost": [], "first_stage_matrix": np.zeros((1, 0))}, {},
     "first stage has no variables"),
    ({"first_stage_matrix": [[1.0, 1.0, 1.0]]}, {},
     "first-stage matrix shape (1, 3) != (1, 2)"),
    ({"first_stage_rhs": [np.inf]}, {},
     "first-stage rhs contains non-finite entries"),
    ({"first_stage_integrality": [True]}, {},
     "first-stage integrality flag length mismatch"),
    ({"scenarios": []}, {}, "at least one scenario is required"),
    ({}, {"probability": -0.5}, "scenario 1: negative probability -0.5"),
    ({}, {"probability": np.nan}, "scenario 1: probability nan is not finite"),
    ({}, {"cost": [1.0], "recourse": [[1.0]]},
     "scenario 1: inconsistent dimensions (1x1 vs 1x2)"),
    ({}, {"technology": np.zeros((1, 3))},
     "scenario 1: technology shape (1, 3) != (1, 2)"),
    ({}, {"recourse": np.zeros((1, 3))},
     "scenario 1: recourse shape (1, 3) != (1, 2)"),
    ({}, {"integrality": [True]}, "scenario 1: integrality flag length mismatch"),
    ({}, {"cost": [1.0, np.nan]}, "scenario 1: cost contains non-finite entries"),
    ({}, {"probability": 0.25},
     "scenario probabilities sum to 0.75, outside the 1e-6 window"),
], ids=["no-variables", "matrix-shape", "first-stage-non-finite",
        "first-stage-flags", "no-scenario", "negative-probability", "nan-probability",
        "inconsistent-dimensions", "technology-shape", "recourse-shape",
        "scenario-flags", "scenario-non-finite", "probability-sum"])
def test_construction_rejects_each_contract_violation(first, second, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        one_row_problem(first, second)


def test_construction_rescales_probabilities_inside_the_window():
    with pytest.warns(UserWarning, match="renormalizing"):
        problem = one_row_problem(second={"probability": 0.5 + 5e-7})
    assert problem.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    assert problem.probabilities[1] > problem.probabilities[0]


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
                with pytest.raises(SolveFailed, match=f"scenario {k} has no "
                                   "feasible recourse") as info:
                    evaluate_scenario_cost(problem, x, k, backend=NO_SOLVER)
                assert info.value.status == "infeasible"
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
    with pytest.raises(SolveFailed, match=r"scenario 0 .* x=\[0.0\]") as info:
        evaluate_scenario_cost(problem, np.zeros(1), 0, backend=NO_SOLVER)
    assert info.value.status == "infeasible"


def test_unbounded_recourse_raises_a_solve_failure():
    with pytest.raises(SolveFailed,
                       match="scenario 0 recourse is unbounded below") as info:
        evaluate_scenario_cost(unbounded_recourse_problem(), [0.0], 0)
    assert info.value.status == "unbounded"


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
