"""Stochastic multidimensional knapsack instance family.

Value-maximization knapsacks stated as minimization with negated profits,
so optimal objectives come out negative.  The second stage couples to the
first through unit coefficients: each second-stage row reads

    sum_i x_i + sum_j w_rj y_j <= h_r(omega).

Weights are drawn once per instance; second-stage profits and capacities
are redrawn per scenario.  All rows are stored in canonical >= orientation
(negated), scenarios are equiprobable, and every variable is binary.

Draw order under a single Philox stream (fixed, part of the file format):
first-stage weights, first-stage capacities, second-stage weights,
first-stage profits, then per scenario profits followed by capacities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario, TwoStageProblem, ValidationError

RNG_IDENTITY = "numpy-philox"


@dataclass(frozen=True)
class KnapsackGenSpec:
    n1: int
    n2: int
    num_scenarios: int
    seed: int = 0
    m1: int = 10
    m2: int = 20

    def __post_init__(self):
        for field in ("n1", "n2", "num_scenarios", "m1", "m2"):
            if getattr(self, field) <= 0:
                raise ValidationError(f"{field} must be positive")

    @property
    def name(self):
        return f"K.{self.n1}.{self.n2}.{self.num_scenarios}"


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _capacities(rng, weights):
    # row capacity ~ U(2 + 2*Wmax, 4*Wmax) with Wmax that row's largest weight
    wmax = weights.max(axis=1)
    return rng.uniform(2.0 + 2.0 * wmax, 4.0 * wmax)


def generate_knapsack(spec: KnapsackGenSpec) -> TwoStageProblem:
    rng = _rng(spec.seed)
    A = rng.uniform(2.0, 8.0, (spec.m1, spec.n1))
    b = _capacities(rng, A)
    w = rng.uniform(2.0, 8.0, (spec.m2, spec.n2))
    c = -rng.uniform(400.0, 650.0, spec.n1)

    p = 1.0 / spec.num_scenarios
    T = -np.ones((spec.m2, spec.n1))
    W = -w
    scenarios = []
    for _ in range(spec.num_scenarios):
        q = -rng.uniform(6.0, 16.0, spec.n2)
        h = _capacities(rng, w)
        scenarios.append(Scenario(
            probability=p, cost=q, technology=T.copy(), recourse=W.copy(),
            rhs=-h, integrality=np.ones(spec.n2, dtype=bool)))
    return TwoStageProblem(
        first_stage_cost=c, first_stage_matrix=-A, first_stage_rhs=-b,
        scenarios=scenarios,
        first_stage_integrality=np.ones(spec.n1, dtype=bool),
        name=spec.name)


def audit_dimensions(problem: TwoStageProblem):
    """(binary vars, constraints, nonzeros) of the risk-neutral extensive form.

    Counted from the data blocks without materializing the matrix, so it
    stays cheap at the largest catalogued sizes.
    """
    nvars = problem.n1 + problem.num_scenarios * problem.n2
    ncons = problem.m1 + problem.num_scenarios * problem.m2
    nnz = int(np.count_nonzero(problem.first_stage_matrix))
    for s in problem.scenarios:
        nnz += int(np.count_nonzero(s.technology))
        nnz += int(np.count_nonzero(s.recourse))
    return nvars, ncons, nnz

