"""Brute-force oracles used to anchor solver results.

First stages are enumerated exhaustively, risk values are restated
inline from per-scenario totals, and the freight envelope is derived
from vertex enumeration rather than the ordering MILP; none of these
share code with the production paths.  Recourse values do: they come
from ``model.scenario_costs``, which enumerates every y of an all-binary
scenario (so on such problems the optimum involves no solver at all) and
solves continuous or mixed recourse on the backend.  That shared
enumeration is checked bit for bit against HiGHS in ``tests/test_model.py``
and independently by ``bench/workloads.enumerated_optimum``.  Scale caps
keep enumeration honest; anything larger is refused, not sampled.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .backend import get_backend
from .lshaped import solve_subproblems
from .model import (
    MAX_ENUMERATED_N2 as MAX_N2, RiskMeasure, RiskSpec, TwoStageProblem,
    scenario_costs,
)

MAX_N1 = 12
MAX_SCENARIOS = 10
FEAS_TOL = 1e-9


class ScaleRefused(ValueError):
    """Instance exceeds the enumeration caps; no fallback is attempted."""


@dataclass
class OracleResult:
    x: np.ndarray
    objective: float


def _measure_value(totals, p, measure, rho, eta, first_stage_cost):
    # deliberately restated from first principles, not shared with model.py
    mean = float(np.dot(p, totals))
    if measure == RiskMeasure.EXPECTATION:
        return mean
    if measure == RiskMeasure.ABSOLUTE_SEMIDEVIATION:
        dev = np.maximum(totals - mean, 0.0)
        return mean + rho * float(np.dot(p, dev))
    if measure == RiskMeasure.EXPECTED_EXCESS:
        over = np.maximum((totals - first_stage_cost) - eta, 0.0)
        excess = first_stage_cost + float(np.dot(p, over))
        return mean + rho * excess
    if measure == RiskMeasure.MODIFIED_EXPECTED_EXCESS:
        excess = float(np.dot(p, np.maximum(totals - eta, 0.0)))
        return (1.0 - rho) * mean + rho * excess
    raise ValueError(f"unknown measure {measure}")


def brute_force_optimum(problem: TwoStageProblem, spec: RiskSpec,
                        backend=None, threads=None) -> OracleResult:
    """Exhaustive minimization over binary first stages.

    Enumerates lexicographically and keeps the first strict minimizer, so
    ties resolve to the lexicographically smallest x.  Recourse values come
    from ``model.scenario_costs``, which enumerates all-binary recourse
    and solves anything else on ``backend``.

    Each excess measure reads eta the way ``model`` does: expected excess
    against the second-stage cost f_w - c'x, modified expected excess
    against the total f_w.
    """
    if problem.n1 > MAX_N1 or problem.n2 > MAX_N2:
        raise ScaleRefused(f"n1={problem.n1}, n2={problem.n2} "
                           f"exceed caps ({MAX_N1}, {MAX_N2})")
    if problem.num_scenarios > MAX_SCENARIOS:
        raise ScaleRefused(f"{problem.num_scenarios} scenarios exceed "
                           f"cap {MAX_SCENARIOS}")
    if not problem.first_stage_integrality.all():
        raise ScaleRefused("enumeration needs an all-binary first stage")
    backend = get_backend(backend)
    p = problem.probabilities
    best_x = None
    best_val = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=problem.n1):
        x = np.array(bits)
        if not problem.first_stage_feasible(x, tol=FEAS_TOL):
            continue
        cx = float(problem.first_stage_cost @ x)
        totals = cx + scenario_costs(problem, x, backend=backend, threads=threads)
        val = _measure_value(totals, p, spec.measure, spec.rho, spec.eta, cx)
        if best_x is None or val < best_val - 1e-12 * max(1.0, abs(best_val)):
            best_val = val
            best_x = x
    if best_x is None:
        raise RuntimeError("no feasible first stage found by enumeration")
    return OracleResult(x=best_x, objective=best_val)


def cut_validity_audit(problem, rho, eta, cuts, backend=None, threads=None):
    """Check theta-cuts against the true relaxed recourse value everywhere.

    Enumerates every first-stage-feasible binary x, computes the exact
    relaxed recourse value, and reports how far each cut overshoots it.
    Report-only: callers decide what a violation means.
    """
    if problem.n1 > MAX_N1:
        raise ScaleRefused(f"n1={problem.n1} exceeds cap {MAX_N1}")
    backend = get_backend(backend)
    p = problem.probabilities
    worst = 0.0
    worst_cut = None
    points = 0
    violations = 0
    for bits in itertools.product((0.0, 1.0), repeat=problem.n1):
        x = np.array(bits)
        if not problem.first_stage_feasible(x, tol=FEAS_TOL):
            continue
        points += 1
        subs = solve_subproblems(problem, rho, x, eta, backend, threads)
        theta_true = float(sum(p[k] * subs[k][0] for k in range(len(subs))))
        for cut in cuts:
            gap = cut.rhs_at(eta) - float(cut.coef @ x) - theta_true
            if gap > worst:
                worst = gap
                worst_cut = cut.origin
            if gap > 1e-7 * max(1.0, abs(theta_true)):
                violations += 1
    return {"points": points, "cuts": len(cuts), "violations": violations,
            "max_violation": worst, "worst_origin": worst_cut}


def freight_interpolation(weight, breakpoints, costs):
    """Cheapest freight representation the segment model admits.

    Minimizes f'z subject to m'z >= weight, sum z <= 1, and z supported on
    one adjacent breakpoint pair.  Solved exactly by vertex enumeration of
    each two-variable polytope.  Returns inf for weights beyond the last
    breakpoint.  Note this is the lower convex envelope through the
    origin, not a naive step lookup: the sum z <= 1 form lets an optimal
    plan scale a segment down, and the model prices weight accordingly.
    """
    m = np.asarray(breakpoints, dtype=float)
    f = np.asarray(costs, dtype=float)
    w = float(weight)
    if w <= 0.0:
        return 0.0
    best = np.inf
    for j in range(len(m) - 1):
        a, b = m[j], m[j + 1]
        fa, fb = f[j], f[j + 1]
        verts = []
        if a >= w:
            verts.append((w / a if a > 0 else 0.0, 0.0))
            verts.append((1.0, 0.0))
        if b >= w:
            verts.append((0.0, w / b if b > 0 else 0.0))
            verts.append((0.0, 1.0))
        if b != a:
            z2 = (w - a) / (b - a)
            if 0.0 <= z2 <= 1.0:
                verts.append((1.0 - z2, z2))
        for z1, z2 in verts:
            if z1 < -1e-12 or z2 < -1e-12 or z1 + z2 > 1.0 + 1e-12:
                continue
            if a * z1 + b * z2 < w - 1e-9:
                continue
            best = min(best, fa * z1 + fb * z2)
    return best
