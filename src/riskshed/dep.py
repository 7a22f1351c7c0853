"""Deterministic-equivalent (extensive form) builders for each risk measure.

Every builder lays variables out as

    [ x (n1) | y_0 .. y_{S-1} (n2 each) | v_0 .. v_{S-1} (risk measures only) ]

and rows as first-stage block, per-scenario recourse blocks, then the
measure's linking rows.  The first stage is always the leading n1
columns, so a solution's x is its first n1 entries.

The absolute-semideviation form keeps the first-stage cost c'x in the
objective only.  Its linking rows are q_w'y_w <= v_w and
sum_j p_j q_j'y_j <= v_w, because c'x sits in both arguments of the
semideviation's max and cancels out of it (probabilities sum to one):

    (1-rho)(c'x + sum p q'y) + rho sum_w p_w max(c'x + q_w'y_w, c'x + sum_j p_j q_j'y_j)
      = c'x + (1-rho) sum p q'y + rho sum_w p_w max(q_w'y_w, sum_j p_j q_j'y_j)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import LinearProgram, MixedBinaryProgram
from .model import TwoStageProblem


@dataclass
class DepArtifact:
    """Assembled extensive form; x is its leading n1 columns."""

    program: MixedBinaryProgram
    n1: int

    def first_stage_values(self, x_full):
        return np.asarray(x_full)[:self.n1]


class _Form:
    """Extensive-form arrays with the first-stage and recourse blocks filled.

    num_v risk columns (free when v_free) and num_aux further columns follow
    the y blocks; num_links rows, all >= 0 until a builder sets them,
    follow the recourse blocks.
    """

    def __init__(self, problem, num_links=0, num_v=0, v_free=False, num_aux=0):
        n1, m1, m2 = problem.n1, problem.m1, problem.m2
        self.problem = problem
        self.v0 = n1 + problem.num_scenarios * problem.n2   # first v column
        self.link0 = m1 + problem.num_scenarios * m2        # first linking row
        ncols = self.v0 + num_v + num_aux
        nrows = self.link0 + num_links
        self.lhs = np.zeros((nrows, ncols))
        self.rhs = np.zeros(nrows)
        self.senses = [">="] * nrows
        self.obj = np.zeros(ncols)
        self.lower = np.zeros(ncols)
        self.upper = np.full(ncols, np.inf)
        self.binary = np.zeros(ncols, dtype=bool)

        self.binary[:n1] = problem.first_stage_integrality
        self.upper[:n1] = np.where(problem.first_stage_integrality, 1.0, np.inf)
        if v_free:
            self.lower[self.v0:self.v0 + num_v] = -np.inf
        self.lhs[0:m1, 0:n1] = problem.first_stage_matrix
        self.rhs[0:m1] = problem.first_stage_rhs
        for k, s in enumerate(problem.scenarios):
            sl = self.y(k)
            self.binary[sl] = s.integrality
            self.upper[sl] = np.where(s.integrality, 1.0, np.inf)
            rsl = slice(m1 + k * m2, m1 + (k + 1) * m2)
            self.lhs[rsl, 0:n1] = s.technology
            self.lhs[rsl, sl] = s.recourse
            self.rhs[rsl] = s.rhs

    def y(self, k):
        """Columns of scenario k's recourse vector."""
        n1, n2 = self.problem.n1, self.problem.n2
        return slice(n1 + k * n2, n1 + (k + 1) * n2)

    def excess_rows(self, rho, y_weight, eta=0.0, x_coef=None):
        """Weight y_w by y_weight p_w q_w and v_w by rho p_w in the objective,
        and fill the excess row  x_coef'x + q_w'y_w - v_w <= eta  of each
        scenario as the first S linking rows (no x term when x_coef is
        None)."""
        n1 = self.problem.n1
        for k, s in enumerate(self.problem.scenarios):
            v, r = self.v0 + k, self.link0 + k
            self.obj[self.y(k)] = y_weight * s.probability * s.cost
            self.obj[v] = rho * s.probability
            if x_coef is not None:
                self.lhs[r, 0:n1] = x_coef
            self.lhs[r, self.y(k)] = s.cost
            self.lhs[r, v] = -1.0
            self.senses[r] = "<="
            self.rhs[r] = eta

    def artifact(self):
        lp = LinearProgram(objective=self.obj, lhs=self.lhs, senses=self.senses,
                           rhs=self.rhs, lower=self.lower, upper=self.upper)
        return DepArtifact(program=MixedBinaryProgram(lp=lp, binary=self.binary),
                           n1=self.problem.n1)


def build_dep_expectation(problem: TwoStageProblem) -> DepArtifact:
    """Risk-neutral extensive form: min c'x + sum_w p_w q_w'y_w."""
    form = _Form(problem)
    form.obj[:problem.n1] = problem.first_stage_cost
    for k, s in enumerate(problem.scenarios):
        form.obj[form.y(k)] = s.probability * s.cost
    return form.artifact()


def build_dep_expected_excess(problem, rho, eta) -> DepArtifact:
    """Expected-excess extensive form with second-stage-only excess rows.

    Objective (1+rho) c'x + sum p q'y + rho sum p v with per-scenario rows
    q_w'y_w - v_w <= eta and v_w >= 0: the target applies to the recourse
    cost and the first-stage cost enters the risk term once, the reading
    ``model.risk_functional`` gives this measure.
    """
    S = problem.num_scenarios
    form = _Form(problem, S, S)
    form.obj[:problem.n1] = (1.0 + rho) * problem.first_stage_cost
    form.excess_rows(rho, y_weight=1.0, eta=eta)
    return form.artifact()


def build_dep_modified_expected_excess(problem, rho, eta) -> DepArtifact:
    """Excess extensive form with total-cost excess rows.

    Objective (1-rho) c'x + sum p [(1-rho) q'y + rho v] with rows
    c'x + q_w'y_w - v_w <= eta and v_w >= 0.
    """
    S = problem.num_scenarios
    c = problem.first_stage_cost
    form = _Form(problem, S, S)
    form.obj[:problem.n1] = (1.0 - rho) * c
    form.excess_rows(rho, y_weight=1.0 - rho, eta=eta, x_coef=c)
    return form.artifact()


def build_dep_absolute_semideviation(problem, rho,
                                     collapse_mean_row=False) -> DepArtifact:
    """Absolute-semideviation extensive form.

    Objective c'x + (1-rho) sum p q'y + rho sum p v with, per scenario, both
    linking rows

        q_w'y_w           <= v_w      (excess row)
        sum_j p_j q_j'y_j <= v_w      (mean link)

    and v free.  The first-stage cost stays out of the rows because both
    arguments of the semideviation's max carry it (module docstring),
    so v_w here is the total-cost v_w less c'x, and the optimum is the
    same.  The mean row is emitted once per scenario, as stated; with
    collapse_mean_row=True a free mean-cost variable m is defined once by
    sum_j p_j q_j'y_j = m and each mean link reads m <= v_w
    instead (same optimum, fewer dense rows).
    """
    S = problem.num_scenarios
    p = problem.probabilities
    form = _Form(problem, 2 * S + collapse_mean_row, S, v_free=True,
                 num_aux=int(collapse_mean_row))
    form.obj[:problem.n1] = problem.first_stage_cost
    form.excess_rows(rho, y_weight=1.0 - rho)
    lhs, base = form.lhs, form.link0

    if not collapse_mean_row:
        for k in range(S):
            r = base + S + k
            for j, sj in enumerate(problem.scenarios):
                lhs[r, form.y(j)] = p[j] * sj.cost
            lhs[r, form.v0 + k] = -1.0
            form.senses[r] = "<="
    else:
        aux = lhs.shape[1] - 1
        form.lower[aux] = -np.inf
        r = base + S
        for j, sj in enumerate(problem.scenarios):
            lhs[r, form.y(j)] = p[j] * sj.cost
        lhs[r, aux] = -1.0
        form.senses[r] = "="
        for k in range(S):
            rr = base + S + 1 + k
            lhs[rr, aux] = 1.0
            lhs[rr, form.v0 + k] = -1.0
            form.senses[rr] = "<="
    return form.artifact()
