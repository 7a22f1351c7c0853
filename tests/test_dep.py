"""Extensive-form builders vs direct evaluation of the risk functionals.

The pinned-x route is the main oracle: fix the first stage in the DEP via
bounds, solve, and compare against evaluate_objective on the same x.  That
checks the objective weights and linking rows of every builder without
trusting any shared code path.
"""
import numpy as np
import pytest

from riskshed.backend import ScipyBackend
from riskshed.dep import (
    build_dep_absolute_semideviation, build_dep_expectation,
    build_dep_expected_excess, build_dep_modified_expected_excess,
)
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import RiskMeasure, RiskSpec, evaluate_objective
from riskshed.mssop import build_mssop_two_stage, generate_mssop_instance

from conftest import (covering_problem, greedy_feasible_point, pin_first_stage,
                      relax_second_stage)

BUILDERS = {
    "expectation": build_dep_expectation,
    "expected-excess": build_dep_expected_excess,
    "modified-expected-excess": build_dep_modified_expected_excess,
    "absolute-semideviation": build_dep_absolute_semideviation,
}


def _y(problem, k):
    """Columns of scenario k's recourse vector: after x and k earlier y blocks."""
    return slice(problem.n1 + k * problem.n2, problem.n1 + (k + 1) * problem.n2)


def _v(problem, k):
    """Column of scenario k's risk variable, after every y block."""
    return problem.n1 + problem.num_scenarios * problem.n2 + k


def _spec_for(name, rho, eta):
    if name == "expectation":
        return RiskSpec(RiskMeasure.EXPECTATION)
    if name == "absolute-semideviation":
        return RiskSpec(name, rho=rho)
    return RiskSpec(name, rho=rho, eta=eta)


def _builder_call(name, problem, rho, eta, **kw):
    if name == "expectation":
        return build_dep_expectation(problem)
    if name == "absolute-semideviation":
        return build_dep_absolute_semideviation(problem, rho, **kw)
    return BUILDERS[name](problem, rho, eta)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_pinned_x_matches_evaluator(name):
    rng = np.random.default_rng(101)
    backend = ScipyBackend()
    for trial in range(8):
        problem = covering_problem(rng, num_scenarios=int(rng.integers(2, 5)))
        x = greedy_feasible_point(problem)
        rho = float(rng.uniform(0.1, 0.9))
        eta = float(rng.normal(-40.0, 10.0))
        art = _builder_call(name, problem, rho, eta)
        pinned = pin_first_stage(art, x)
        sol = backend.solve_mip(pinned.program)
        assert sol.status == "optimal"
        spec = _spec_for(name, rho, eta)
        want = evaluate_objective(problem, x, spec)
        assert abs(sol.objective - want) < 1e-7 * max(1.0, abs(want)), (
            name, trial, sol.objective, want)


def test_structural_nnz_matches_matrix():
    rng = np.random.default_rng(33)
    for trial in range(5):
        problem = covering_problem(rng, num_scenarios=3)
        for name in BUILDERS:
            art = _builder_call(name, problem, 0.5, -30.0)
            nv, nc, nnz = art.stats
            lp = art.program.lp
            assert nv == lp.num_vars and nc == lp.num_rows
            assert nnz == int(np.count_nonzero(lp.lhs))


def test_expectation_layout():
    rng = np.random.default_rng(40)
    problem = covering_problem(rng, n1=3, n2=4, num_scenarios=2)
    art = build_dep_expectation(problem)
    nv, nc, _ = art.stats
    assert nv == 3 + 2 * 4
    assert nc == problem.m1 + 2 * problem.m2
    # probability-weighted scenario costs sit on the y blocks
    for k, s in enumerate(problem.scenarios):
        sl = _y(problem, k)
        assert np.allclose(art.program.lp.objective[sl],
                           s.probability * s.cost)


def test_excess_builders_add_one_row_and_var_per_scenario():
    rng = np.random.default_rng(41)
    problem = covering_problem(rng, num_scenarios=4)
    base = build_dep_expectation(problem)
    for build in (build_dep_expected_excess,
                  build_dep_modified_expected_excess):
        art = build(problem, 0.3, -20.0)
        assert art.stats[0] == base.stats[0] + 4      # one v per scenario
        assert art.stats[1] == base.stats[1] + 4      # one link per scenario
        # v is nonnegative, not binary
        for k in range(4):
            v = _v(problem, k)
            assert not art.program.binary[v]
            assert art.program.lp.lower[v] == 0.0


def test_asd_builder_two_rows_free_v():
    rng = np.random.default_rng(42)
    problem = covering_problem(rng, num_scenarios=3)
    base = build_dep_expectation(problem)
    art = build_dep_absolute_semideviation(problem, 0.6)
    assert art.stats[0] == base.stats[0] + 3
    assert art.stats[1] == base.stats[1] + 2 * 3      # own + mean row each
    for k in range(3):
        assert np.isneginf(art.program.lp.lower[_v(problem, k)])


def test_asd_linking_rows_leave_first_stage_out():
    rng = np.random.default_rng(46)
    problem = covering_problem(rng, num_scenarios=3)
    for collapse in (False, True):
        art = build_dep_absolute_semideviation(problem, 0.7,
                                               collapse_mean_row=collapse)
        lhs, xsl = art.program.lp.lhs, slice(0, problem.n1)
        # the linking rows follow the first-stage and recourse blocks
        rows = lhs[problem.m1 + 3 * problem.m2:]
        assert rows.shape[0] == 2 * 3 + collapse
        assert not rows[:, xsl].any()
        assert np.array_equal(art.program.lp.objective[xsl],
                              problem.first_stage_cost)


def test_asd_collapsed_equals_dense():
    rng = np.random.default_rng(43)
    backend = ScipyBackend()
    cases = [(covering_problem(rng, num_scenarios=int(rng.integers(2, 5))),
              float(rng.uniform(0.2, 0.9))) for _ in range(4)]
    # continuous first stage with a nonzero cost
    ordering = build_mssop_two_stage(generate_mssop_instance(2, 3, 3, seed=2))
    cases.append((ordering.problem, 0.6))
    for problem, rho in cases:
        dense = build_dep_absolute_semideviation(problem, rho)
        sparse = build_dep_absolute_semideviation(problem, rho,
                                                  collapse_mean_row=True)
        a = backend.solve_mip(dense.program)
        b = backend.solve_mip(sparse.program)
        assert a.status == b.status == "optimal"
        assert abs(a.objective - b.objective) < 1e-7 * max(1.0, abs(a.objective))
        # the collapsed form trades S extra alias rows for mean-row sparsity
        assert sparse.stats[0] == dense.stats[0] + 1


def test_optimal_dep_beats_any_pinned_x():
    rng = np.random.default_rng(44)
    backend = ScipyBackend()
    problem = covering_problem(rng, num_scenarios=3)
    art = build_dep_absolute_semideviation(problem, 0.5)
    free = backend.solve_mip(art.program)
    x = greedy_feasible_point(problem)
    pinned = backend.solve_mip(pin_first_stage(art, x).program)
    assert free.objective <= pinned.objective + 1e-9
    got_x = art.first_stage_values(free.x)
    want = evaluate_objective(problem, np.rint(got_x),
                              RiskSpec("absolute-semideviation", rho=0.5))
    assert abs(free.objective - want) < 1e-7 * max(1.0, abs(want))


def test_relax_second_stage_only_unflags_y():
    rng = np.random.default_rng(45)
    problem = covering_problem(rng, num_scenarios=2)
    art = build_dep_modified_expected_excess(problem, 0.4, -10.0)
    relaxed = relax_second_stage(art)
    assert relaxed.program.binary[:problem.n1].all()
    for k in range(2):
        assert not relaxed.program.binary[_y(problem, k)].any()
    be = ScipyBackend()
    lo = be.solve_mip(relaxed.program)
    hi = be.solve_mip(art.program)
    assert lo.objective <= hi.objective + 1e-9


def test_expected_excess_optimum_is_its_evaluated_plan():
    # K.5.6.3 seed 2 at rho 0.5 and eta the neutral optimum Q_E: the excess
    # form's optimum is the expected-excess value of its own plan
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=2, m1=3, m2=4))
    backend = ScipyBackend()
    eta = backend.solve_mip(build_dep_expectation(problem).program).objective
    art = build_dep_expected_excess(problem, 0.5, eta)
    sol = backend.solve_mip(art.program)
    assert sol.status == "optimal"
    want = evaluate_objective(problem, np.rint(art.first_stage_values(sol.x)),
                              RiskSpec("expected-excess", rho=0.5, eta=eta))
    assert sol.objective == pytest.approx(want, rel=1e-7)
