"""Deterministic-equivalent (extensive form) builders for each risk measure.

Every builder lays variables out as

    [ x (n1) | y_0 .. y_{S-1} (n2 each) | v_0 .. v_{S-1} (risk measures only) ]

and rows as first-stage block, per-scenario recourse blocks, then the
measure's linking rows.  Index maps into both dimensions are returned with
the assembled program so callers can pin, relax or decode solutions without
guessing offsets.

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
from .model import TwoStageProblem, require_valid


@dataclass
class DepArtifact:
    """Assembled extensive form plus bookkeeping."""

    program: MixedBinaryProgram
    var_index: dict
    row_index: dict

    @property
    def stats(self):
        """(variables, constraints, nonzeros) counted from the emitted matrix."""
        lp = self.program.lp
        return lp.num_vars, lp.num_rows, int(np.count_nonzero(lp.lhs))

    def first_stage_values(self, x_full):
        return np.asarray(x_full)[self.var_index["x"]]


def _layout(problem, num_links, num_v, v_free, num_aux=0):
    S = problem.num_scenarios
    n1, n2 = problem.n1, problem.n2
    m1, m2 = problem.m1, problem.m2
    ncols = n1 + S * n2 + num_v + num_aux
    nrows = m1 + S * m2 + num_links
    lhs = np.zeros((nrows, ncols))
    rhs = np.zeros(nrows)
    senses = [">="] * nrows
    obj = np.zeros(ncols)
    lower = np.zeros(ncols)
    upper = np.full(ncols, np.inf)
    binary = np.zeros(ncols, dtype=bool)

    var_index = {"x": slice(0, n1)}
    binary[:n1] = problem.first_stage_integrality
    upper[:n1] = np.where(problem.first_stage_integrality, 1.0, np.inf)
    for k in range(S):
        sl = slice(n1 + k * n2, n1 + (k + 1) * n2)
        var_index[("y", k)] = sl
        flags = problem.scenarios[k].integrality
        binary[sl] = flags
        upper[sl] = np.where(flags, 1.0, np.inf)
    v_base = n1 + S * n2
    for k in range(num_v):
        var_index[("v", k)] = v_base + k
        if v_free:
            lower[v_base + k] = -np.inf

    row_index = {"first_stage": slice(0, m1)}
    lhs[0:m1, 0:n1] = problem.first_stage_matrix
    rhs[0:m1] = problem.first_stage_rhs
    for k, s in enumerate(problem.scenarios):
        rsl = slice(m1 + k * m2, m1 + (k + 1) * m2)
        row_index[("recourse", k)] = rsl
        lhs[rsl, 0:n1] = s.technology
        lhs[rsl, var_index[("y", k)]] = s.recourse
        rhs[rsl] = s.rhs

    return lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index


def _excess_rows(problem, lhs, rhs, senses, obj, var_index, row_index, rho,
                 y_weight, eta=0.0, x_coef=None):
    """Weight y_w by y_weight p_w q_w and v_w by rho p_w in the objective,
    and fill the ("excess", w) row  x_coef'x + q_w'y_w - v_w <= eta  of
    each scenario, in order after the recourse blocks (no x term when
    x_coef is None)."""
    base = problem.m1 + problem.num_scenarios * problem.m2
    for k, s in enumerate(problem.scenarios):
        obj[var_index[("y", k)]] = y_weight * s.probability * s.cost
        obj[var_index[("v", k)]] = rho * s.probability
        r = base + k
        row_index[("excess", k)] = r
        if x_coef is not None:
            lhs[r, var_index["x"]] = x_coef
        lhs[r, var_index[("y", k)]] = s.cost
        lhs[r, var_index[("v", k)]] = -1.0
        senses[r] = "<="
        rhs[r] = eta


def _finish(lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index):
    lp = LinearProgram(objective=obj, lhs=lhs, senses=senses, rhs=rhs,
                       lower=lower, upper=upper)
    return DepArtifact(program=MixedBinaryProgram(lp=lp, binary=binary),
                       var_index=var_index, row_index=row_index)


def build_dep_expectation(problem: TwoStageProblem) -> DepArtifact:
    """Risk-neutral extensive form: min c'x + sum_w p_w q_w'y_w."""
    require_valid(problem)
    (lhs, rhs, senses, obj, lower, upper, binary,
     var_index, row_index) = _layout(problem, 0, 0, False)
    obj[var_index["x"]] = problem.first_stage_cost
    for k, s in enumerate(problem.scenarios):
        obj[var_index[("y", k)]] = s.probability * s.cost
    return _finish(lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index)


def build_dep_expected_excess(problem, rho, eta) -> DepArtifact:
    """Expected-excess extensive form with second-stage-only excess rows.

    Objective (1+rho) c'x + sum p q'y + rho sum p v with per-scenario rows
    q_w'y_w - v_w <= eta and v_w >= 0.  The first-stage cost enters the
    objective with the extra rho weight rather than the excess rows; the
    evaluator's default total-cost reading corresponds to the
    modified-excess builder below.
    """
    require_valid(problem)
    S = problem.num_scenarios
    (lhs, rhs, senses, obj, lower, upper, binary,
     var_index, row_index) = _layout(problem, S, S, False)
    obj[var_index["x"]] = (1.0 + rho) * problem.first_stage_cost
    _excess_rows(problem, lhs, rhs, senses, obj, var_index, row_index, rho,
                 y_weight=1.0, eta=eta)
    return _finish(lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index)


def build_dep_modified_expected_excess(problem, rho, eta) -> DepArtifact:
    """Excess extensive form with total-cost excess rows.

    Objective (1-rho) c'x + sum p [(1-rho) q'y + rho v] with rows
    c'x + q_w'y_w - v_w <= eta and v_w >= 0.
    """
    require_valid(problem)
    S = problem.num_scenarios
    c = problem.first_stage_cost
    (lhs, rhs, senses, obj, lower, upper, binary,
     var_index, row_index) = _layout(problem, S, S, False)
    obj[var_index["x"]] = (1.0 - rho) * c
    _excess_rows(problem, lhs, rhs, senses, obj, var_index, row_index, rho,
                 y_weight=1.0 - rho, eta=eta, x_coef=c)
    return _finish(lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index)


def build_dep_absolute_semideviation(problem, rho,
                                     collapse_mean_row=False) -> DepArtifact:
    """Absolute-semideviation extensive form.

    Objective c'x + (1-rho) sum p q'y + rho sum p v with, per scenario, both
    linking rows

        q_w'y_w           <= v_w      ("excess", w)
        sum_j p_j q_j'y_j <= v_w      ("mean_link", w)

    and v free.  The first-stage cost stays out of the rows because both
    arguments of the semideviation's max carry it and the probabilities
    sum to one:

        (1-rho)(c'x + sum p q'y) + rho sum_w p_w max(c'x + q_w'y_w, c'x + sum_j p_j q_j'y_j)
          = c'x + (1-rho) sum p q'y + rho sum_w p_w max(q_w'y_w, sum_j p_j q_j'y_j)

    so v_w here is the total-cost v_w less c'x, and the optimum is the
    same.  The mean row is emitted once per scenario, as stated; with
    collapse_mean_row=True a free mean-cost variable m is defined once by
    sum_j p_j q_j'y_j = m ("mean_def") and each mean link reads m <= v_w
    instead (same optimum, fewer dense rows).
    """
    require_valid(problem)
    S = problem.num_scenarios
    p = problem.probabilities
    num_links = 2 * S if not collapse_mean_row else (2 * S + 1)
    num_aux = 0 if not collapse_mean_row else 1
    (lhs, rhs, senses, obj, lower, upper, binary,
     var_index, row_index) = _layout(problem, num_links, S, True, num_aux)
    obj[var_index["x"]] = problem.first_stage_cost
    _excess_rows(problem, lhs, rhs, senses, obj, var_index, row_index, rho,
                 y_weight=1.0 - rho)
    base = problem.m1 + S * problem.m2

    if not collapse_mean_row:
        for k in range(S):
            r = base + S + k
            row_index[("mean_link", k)] = r
            for j, sj in enumerate(problem.scenarios):
                lhs[r, var_index[("y", j)]] = p[j] * sj.cost
            lhs[r, var_index[("v", k)]] = -1.0
            senses[r] = "<="
    else:
        aux = lhs.shape[1] - 1
        var_index["mean_cost"] = aux
        lower[aux] = -np.inf
        r = base + S
        row_index["mean_def"] = r
        for j, sj in enumerate(problem.scenarios):
            lhs[r, var_index[("y", j)]] = p[j] * sj.cost
        lhs[r, aux] = -1.0
        senses[r] = "="
        for k in range(S):
            rr = base + S + 1 + k
            row_index[("mean_link", k)] = rr
            lhs[rr, aux] = 1.0
            lhs[rr, var_index[("v", k)]] = -1.0
            senses[rr] = "<="
    return _finish(lhs, rhs, senses, obj, lower, upper, binary, var_index, row_index)


BUILDERS = {
    "expectation": build_dep_expectation,
    "expected-excess": build_dep_expected_excess,
    "modified-expected-excess": build_dep_modified_expected_excess,
    "absolute-semideviation": build_dep_absolute_semideviation,
}


def pin_first_stage(artifact: DepArtifact, x) -> DepArtifact:
    """Copy of the extensive form with the first stage fixed to x via bounds."""
    x = np.asarray(x, dtype=float)
    lp = artifact.program.lp
    lower = lp.lower.copy()
    upper = lp.upper.copy()
    sl = artifact.var_index["x"]
    lower[sl] = x
    upper[sl] = x
    new_lp = LinearProgram(objective=lp.objective, lhs=lp.lhs, senses=lp.senses,
                           rhs=lp.rhs, lower=lower, upper=upper)
    return DepArtifact(
        program=MixedBinaryProgram(lp=new_lp, binary=artifact.program.binary.copy()),
        var_index=artifact.var_index, row_index=artifact.row_index,
    )


def relax_second_stage(artifact: DepArtifact) -> DepArtifact:
    """Copy with second-stage integrality dropped (y in [0,1]); x stays binary."""
    binary = artifact.program.binary.copy()
    for key, sl in artifact.var_index.items():
        if isinstance(key, tuple) and key[0] == "y":
            binary[sl] = False
    return DepArtifact(
        program=MixedBinaryProgram(lp=artifact.program.lp, binary=binary),
        var_index=artifact.var_index, row_index=artifact.row_index,
    )
