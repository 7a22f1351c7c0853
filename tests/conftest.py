"""Shared builders for the test suite.

The covering family below is the workhorse: all data negative, so y = 0 is
feasible in every scenario (complete recourse by construction) and x = 0 is
feasible in the first stage.  Problems stay small enough for the
brute-force oracles.  ``NoSolver`` is the backend for code that must not
solve anything: every call fails the test.
"""
import numpy as np
import pytest

from riskshed.backend import Backend
from riskshed.model import Scenario, TwoStageProblem


class NoSolver(Backend):
    def solve_lp(self, lp):
        raise AssertionError("unexpected solver call")

    def solve_mip(self, mip, **options):
        raise AssertionError("unexpected solver call")


def covering_problem(rng, n1=4, n2=6, m1=3, m2=5, num_scenarios=3,
                     binary_y=True, equiprobable=False):
    A = -rng.uniform(2.0, 8.0, (m1, n1))
    b = -rng.uniform(10.0, 25.0, m1)
    c = -rng.uniform(5.0, 30.0, n1)
    if equiprobable:
        p = np.full(num_scenarios, 1.0 / num_scenarios)
    else:
        p = rng.dirichlet(np.ones(num_scenarios))
    scenarios = []
    for k in range(num_scenarios):
        scenarios.append(Scenario(
            probability=p[k],
            cost=-rng.uniform(4.0, 16.0, n2),
            technology=-rng.uniform(0.2, 1.5, (m2, n1)),
            recourse=-rng.uniform(2.0, 8.0, (m2, n2)),
            rhs=-rng.uniform(10.0, 30.0, m2),
            integrality=np.full(n2, binary_y),
        ))
    return TwoStageProblem(
        first_stage_cost=c, first_stage_matrix=A, first_stage_rhs=b,
        scenarios=scenarios, first_stage_integrality=np.ones(n1, bool))


def greedy_feasible_point(problem):
    """Deterministic nonzero binary x: flip coordinates while feasible."""
    x = np.zeros(problem.n1)
    for j in range(problem.n1):
        x[j] = 1.0
        if not problem.first_stage_feasible(x):
            x[j] = 0.0
    return x


@pytest.fixture
def toy_problem():
    return covering_problem(np.random.default_rng(7))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
