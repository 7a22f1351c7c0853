"""Shared builders for the test suite.

The covering family below is the workhorse: all data negative, so y = 0 is
feasible in every scenario (complete recourse by construction) and x = 0 is
feasible in the first stage.  Problems stay small enough for the
brute-force oracles.  ``NoSolver`` is the backend for code that must not
solve anything: every call fails the test.  ``pin_first_stage`` and
``relax_second_stage`` derive variants of an assembled extensive form.
``svc_problem`` rebuilds the service-style family of the cut audit.
``verify_complete_recourse`` certifies the knapsack family's recourse,
and ``dep_dimensions`` counts an assembled extensive form.
``python_on_src`` runs a fresh interpreter on this checkout.
"""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskshed.backend import (Backend, LinearProgram, MixedBinaryProgram,
                              get_backend, optimal)
from riskshed.model import Scenario, TwoStageProblem


def python_on_src(*argv):
    """Run a fresh python with this checkout's src first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


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


def svc_problem(seed):
    """The service-style ``svc.s`` family of docs/cut_audit_findings.md.

    All costs are nonnegative and paid slack makes recourse complete.  Five
    binary first-stage columns under one trivial row (sum x >= 0); four
    equiprobable scenarios, each drawing T, R, the binary q, the slack q
    and h in that order, with W = [R | I] and the R columns binary.
    """
    rng = np.random.default_rng(np.random.Philox(seed))
    c = rng.uniform(0.5, 3, 5)
    scenarios = []
    for _ in range(4):
        T = rng.integers(-2, 3, (4, 5))
        R = rng.integers(-1, 3, (4, 3))
        q = np.concatenate([rng.uniform(1, 5, 3), rng.uniform(4, 8, 4)])
        h = rng.uniform(1, 6, 4)
        scenarios.append(Scenario(
            probability=0.25, cost=q, technology=T,
            recourse=np.hstack([R, np.eye(4)]), rhs=h,
            integrality=np.arange(7) < 3))
    return TwoStageProblem(
        first_stage_cost=c, first_stage_matrix=np.ones((1, 5)),
        first_stage_rhs=np.zeros(1), scenarios=scenarios,
        first_stage_integrality=np.ones(5, bool), name=f"svc.{seed}")


def unbounded_recourse_problem():
    """One scenario whose continuous recourse y2 (cost -1) has no upper
    bound and no row: every first stage leaves the recourse unbounded."""
    s = Scenario(probability=1.0, cost=[1.0, -1.0], technology=[[0.0]],
                 recourse=[[1.0, 0.0]], rhs=[0.0], integrality=[True, False])
    return TwoStageProblem(first_stage_cost=[0.0], first_stage_matrix=[[1.0]],
                           first_stage_rhs=[0.0], scenarios=[s])


def greedy_feasible_point(problem):
    """Deterministic nonzero binary x: flip coordinates while feasible."""
    x = np.zeros(problem.n1)
    for j in range(problem.n1):
        x[j] = 1.0
        if not problem.first_stage_feasible(x):
            x[j] = 0.0
    return x


def pin_first_stage(artifact, x):
    """Copy of the extensive form with the first stage fixed to x via bounds."""
    lp, n1 = artifact.program.lp, artifact.n1
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lower[:n1] = upper[:n1] = np.asarray(x, dtype=float)
    program = dataclasses.replace(
        artifact.program, lp=dataclasses.replace(lp, lower=lower, upper=upper))
    return dataclasses.replace(artifact, program=program)


def relax_second_stage(artifact):
    """Copy with integrality dropped after the first stage; x stays binary."""
    binary = artifact.program.binary.copy()
    binary[artifact.n1:] = False
    program = dataclasses.replace(artifact.program, binary=binary)
    return dataclasses.replace(artifact, program=program)


def verify_complete_recourse(problem, backend=None):
    """Certify that y = 0 stays feasible for every feasible first stage.

    Solves max sum x over the first-stage region exactly and compares the
    load against the smallest scenario capacity.  Returns (ok, margin);
    margin is min capacity minus worst-case load, positive when certified.
    Sufficient, not necessary: a negative margin only means the cheap
    certificate failed.
    """
    n1, m1 = problem.n1, problem.m1
    lp = LinearProgram(
        objective=-np.ones(n1),             # maximize cardinality
        lhs=problem.first_stage_matrix, senses=[">="] * m1,
        rhs=problem.first_stage_rhs,
        lower=np.zeros(n1), upper=np.ones(n1))
    sol = optimal(get_backend(backend).solve_mip(MixedBinaryProgram(
        lp=lp, binary=problem.first_stage_integrality.copy())),
        "first-stage load check")
    max_load = -sol.objective
    min_capacity = min(float((-s.rhs).min()) for s in problem.scenarios)
    margin = min_capacity - max_load
    return margin >= 0.0, margin


def dep_dimensions(art):
    """(variables, constraints, nonzeros) of an extensive form's matrix."""
    lp = art.program.lp
    return lp.num_vars, lp.num_rows, int(np.count_nonzero(lp.lhs))


@pytest.fixture
def toy_problem():
    return covering_problem(np.random.default_rng(7))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
