"""Stochastic multi-knapsack generator: structure, determinism, recourse."""
import numpy as np
import pytest

from riskshed.dep import build_dep_expectation
from riskshed.knapsack import KnapsackGenSpec, audit_dimensions, generate_knapsack

from conftest import dep_dimensions, verify_complete_recourse

# (n1, n2, scenarios) -> (binary vars, constraints, nonzeros) at m1=10, m2=20
CATALOG = {
    (10, 20, 50): (1010, 1010, 30100),
    (10, 20, 100): (2010, 2010, 60100),
    (20, 30, 50): (1520, 1010, 50200),
    (20, 30, 100): (3020, 2010, 100200),
    (30, 40, 50): (2030, 1010, 70300),
    (30, 40, 100): (4030, 2010, 140300),
    (40, 50, 50): (2540, 1010, 90400),
    (40, 50, 100): (5040, 2010, 180400),
}


def test_catalog_dimensions_exact():
    for (n1, n2, S), want in CATALOG.items():
        problem = generate_knapsack(KnapsackGenSpec(n1, n2, S, seed=1))
        assert audit_dimensions(problem) == want, (n1, n2, S)


def test_audit_agrees_with_materialized_dep():
    problem = generate_knapsack(KnapsackGenSpec(6, 8, 5, seed=2, m1=4, m2=6))
    art = build_dep_expectation(problem)
    assert audit_dimensions(problem) == dep_dimensions(art)


def test_spec_validation_and_name():
    spec = KnapsackGenSpec(10, 20, 50)
    assert spec.name == "K.10.20.50"
    with pytest.raises(ValueError):
        KnapsackGenSpec(0, 20, 50)
    with pytest.raises(ValueError):
        KnapsackGenSpec(10, 20, 50, m2=-1)


def test_same_seed_reproduces_bytes():
    a = generate_knapsack(KnapsackGenSpec(8, 10, 6, seed=42, m1=4, m2=5))
    b = generate_knapsack(KnapsackGenSpec(8, 10, 6, seed=42, m1=4, m2=5))
    assert np.array_equal(a.first_stage_matrix, b.first_stage_matrix)
    assert np.array_equal(a.first_stage_cost, b.first_stage_cost)
    for sa, sb in zip(a.scenarios, b.scenarios):
        assert np.array_equal(sa.cost, sb.cost)
        assert np.array_equal(sa.rhs, sb.rhs)
    c = generate_knapsack(KnapsackGenSpec(8, 10, 6, seed=43, m1=4, m2=5))
    assert not np.array_equal(a.first_stage_cost, c.first_stage_cost)


def test_scenarios_share_recourse_but_vary_cost_rhs():
    problem = generate_knapsack(KnapsackGenSpec(6, 8, 5, seed=3, m1=4, m2=6))
    s0 = problem.scenarios[0]
    for s in problem.scenarios[1:]:
        assert np.array_equal(s.recourse, s0.recourse)
        assert np.array_equal(s.technology, s0.technology)
        assert not np.array_equal(s.cost, s0.cost)
        assert not np.array_equal(s.rhs, s0.rhs)
        assert s.probability == pytest.approx(1.0 / 5)


def test_sign_conventions():
    # maximization recast: values negated, capacities negated, >= rows
    problem = generate_knapsack(KnapsackGenSpec(5, 7, 3, seed=4, m1=3, m2=4))
    assert np.all(problem.first_stage_cost < 0)
    assert np.all(problem.first_stage_matrix < 0)
    assert np.all(problem.first_stage_rhs < 0)
    for s in problem.scenarios:
        assert np.all(s.cost < 0)
        assert np.all(s.recourse < 0)
        assert np.all(s.rhs < 0)
        assert np.all(s.technology == -1.0)
        assert s.integrality.all()


def test_capacity_window_allows_partial_packing():
    # capacities drawn from (2 + 2*max weight, 4*max weight) row-wise:
    # tighter than the full pack, looser than a single item
    problem = generate_knapsack(KnapsackGenSpec(12, 10, 2, seed=5))
    A = -problem.first_stage_matrix
    b = -problem.first_stage_rhs
    rowmax = A.max(axis=1)
    assert np.all(b >= 2.0 + 2.0 * rowmax - 1e-12)
    assert np.all(b <= 4.0 * rowmax + 1e-12)


def test_complete_recourse_certificate():
    for seed in range(8):
        problem = generate_knapsack(
            KnapsackGenSpec(8, 10, 4, seed=seed, m1=4, m2=6))
        ok, margin = verify_complete_recourse(problem)
        assert ok and margin > 0.0, (seed, margin)


def test_generated_problem_validates():
    from riskshed.model import validate
    problem = generate_knapsack(KnapsackGenSpec(6, 8, 4, seed=6, m1=3, m2=5))
    assert validate(problem) == []
    assert problem.name == "K.6.8.4"
