"""Enumeration oracles vs. production paths, plus the freight envelope.

The knapsack family has all-binary recourse, which the oracle enumerates:
its calls here get a backend that fails any solve, so the extensive forms
solved on HiGHS are checked against a solver-free ground truth.
"""
import numpy as np
import pytest

from riskshed.backend import ScipyBackend
from riskshed.dep import (
    build_dep_absolute_semideviation, build_dep_expectation,
    build_dep_expected_excess, build_dep_modified_expected_excess,
)
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.lshaped import OptimalityCut, lshaped_solve
from riskshed.model import RiskSpec
from riskshed.mssop import BREAKPOINT_WEIGHT, FREIGHT_COST
from riskshed.oracle import (brute_force_optimum, cut_validity_audit,
                             freight_interpolation)

from conftest import NoSolver, covering_problem

BACKEND = ScipyBackend()
NO_SOLVER = NoSolver()


def small(seed):
    return generate_knapsack(KnapsackGenSpec(5, 6, 4, seed=seed, m1=3, m2=4))


def dep_opt(art):
    sol = BACKEND.solve_mip(art.program, gap_tol=1e-9)
    assert sol.status == "optimal"
    return sol.objective


def test_oracle_matches_expectation_dep():
    for seed in range(4):
        problem = small(seed)
        res = brute_force_optimum(problem, RiskSpec("expectation"),
                                  backend=NO_SOLVER)
        assert res.objective == pytest.approx(
            dep_opt(build_dep_expectation(problem)), rel=1e-7)


def test_oracle_matches_semideviation_dep():
    for seed in range(4):
        problem = small(seed)
        res = brute_force_optimum(
            problem, RiskSpec("absolute-semideviation", rho=0.5),
            backend=NO_SOLVER)
        art = build_dep_absolute_semideviation(problem, 0.5)
        assert res.objective == pytest.approx(dep_opt(art), rel=1e-7)


def test_oracle_matches_excess_deps():
    problem = small(7)
    neutral = brute_force_optimum(problem, RiskSpec("expectation"),
                                  backend=NO_SOLVER)
    eta = neutral.objective  # a target in the realized cost range
    ee = brute_force_optimum(
        problem, RiskSpec("expected-excess", rho=0.4, eta=eta),
        backend=NO_SOLVER)
    assert ee.objective == pytest.approx(
        dep_opt(build_dep_expected_excess(problem, 0.4, eta)), rel=1e-7)
    mod = brute_force_optimum(
        problem, RiskSpec("modified-expected-excess", rho=0.4, eta=eta),
        backend=NO_SOLVER)
    assert mod.objective == pytest.approx(
        dep_opt(build_dep_modified_expected_excess(problem, 0.4, eta)),
        rel=1e-7)


def test_oracle_solves_continuous_recourse():
    problem = covering_problem(np.random.default_rng(11), binary_y=False)
    res = brute_force_optimum(problem, RiskSpec("expectation"),
                              backend=BACKEND)
    assert res.objective == pytest.approx(
        dep_opt(build_dep_expectation(problem)), rel=1e-7)
    with pytest.raises(AssertionError, match="unexpected solver call"):
        brute_force_optimum(problem, RiskSpec("expectation"),
                            backend=NO_SOLVER)


def test_oracle_degenerate_reductions():
    problem = small(2)
    neutral = brute_force_optimum(problem, RiskSpec("expectation"),
                                  backend=NO_SOLVER)
    asd0 = brute_force_optimum(
        problem, RiskSpec("absolute-semideviation", rho=0.0),
        backend=NO_SOLVER)
    assert asd0.objective == pytest.approx(neutral.objective, abs=1e-9)
    single = generate_knapsack(KnapsackGenSpec(5, 6, 1, seed=3, m1=3, m2=4))
    a = brute_force_optimum(single, RiskSpec("absolute-semideviation",
                                             rho=0.9), backend=NO_SOLVER)
    b = brute_force_optimum(single, RiskSpec("expectation"), backend=NO_SOLVER)
    # one scenario has zero deviation from its own mean
    assert a.objective == pytest.approx(b.objective, abs=1e-9)


def test_scale_caps_refuse():
    big = generate_knapsack(KnapsackGenSpec(13, 6, 4, seed=0, m1=3, m2=4))
    with pytest.raises(ValueError, match=r"n1=13, n2=6 exceed caps \(12, 12\)"):
        brute_force_optimum(big, RiskSpec("expectation"), backend=NO_SOLVER)
    many = generate_knapsack(KnapsackGenSpec(5, 6, 11, seed=0, m1=3, m2=4))
    with pytest.raises(ValueError, match="11 scenarios exceed cap 10"):
        brute_force_optimum(many, RiskSpec("expectation"), backend=NO_SOLVER)
    cont = small(1)
    cont.first_stage_integrality[:] = False
    with pytest.raises(ValueError, match="enumeration needs an all-binary first stage"):
        brute_force_optimum(cont, RiskSpec("expectation"), backend=NO_SOLVER)
    with pytest.raises(ValueError, match="n1=13 exceeds cap 12"):
        cut_validity_audit(big, 0.5, 0.0, [], backend=NO_SOLVER)


def test_decomposition_cuts_pass_audit():
    problem = small(4)
    eta = -900.0
    res = lshaped_solve(problem, rho=0.3, eta=eta, backend=BACKEND,
                        tol=1e-7, max_iters=60)
    report = cut_validity_audit(problem, 0.3, eta, list(res.cuts.cuts),
                                backend=BACKEND)
    assert report["points"] > 0
    assert report["cuts"] == len(res.cuts)
    assert report["violations"] == 0
    assert report["max_violation"] <= 1e-7


def test_forged_cut_is_flagged():
    problem = small(4)
    forged = OptimalityCut(coef=np.zeros(problem.n1), rhs_base=1e6,
                           eta_coef=0.0, origin="forged", scenario=None)
    report = cut_validity_audit(problem, 0.3, -900.0, [forged],
                                backend=BACKEND)
    assert report["violations"] == report["points"] > 0
    assert report["worst_origin"] == "forged"
    assert report["max_violation"] > 1e3


def test_freight_envelope_fixed_schedule():
    # the shared-sum form prices any weight at the best scaled segment,
    # which for this schedule is the top one throughout
    for w in (1.0, 500.0, 17500.0, 20000.0, 35000.0, 69999.0, 70000.0):
        assert freight_interpolation(w, BREAKPOINT_WEIGHT, FREIGHT_COST) \
            == pytest.approx(2200.0 * w / 70000.0, rel=1e-12)
    assert freight_interpolation(0.0, BREAKPOINT_WEIGHT, FREIGHT_COST) == 0.0
    assert freight_interpolation(-5.0, BREAKPOINT_WEIGHT, FREIGHT_COST) == 0.0
    assert np.isinf(freight_interpolation(70001.0, BREAKPOINT_WEIGHT,
                                          FREIGHT_COST))


def test_freight_envelope_convex_schedule():
    # with convex per-unit costs, interpolating between breakpoints beats
    # scaling a single segment
    m = (0.0, 10.0, 20.0)
    f = (0.0, 5.0, 20.0)
    assert freight_interpolation(15.0, m, f) == pytest.approx(12.5)
    assert freight_interpolation(10.0, m, f) == pytest.approx(5.0)
    assert freight_interpolation(5.0, m, f) == pytest.approx(2.5)
    assert freight_interpolation(20.0, m, f) == pytest.approx(20.0)
    assert np.isinf(freight_interpolation(20.5, m, f))
