"""The solver backend (HiGHS through scipy) and its memo wrapper.

Expected answers come from outside the solver: hand-worked programs,
strong duality checked from the returned duals, and the enumeration
oracle.  Random programs are drawn with bounded data so they stay
well-conditioned.
"""
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from riskshed.backend import (
    INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LinearProgram, MemoBackend,
    MixedBinaryProgram, ScipyBackend, SolveFailed, get_backend, optimal,
)
from riskshed.backend import scipy_backend
from riskshed.dep import build_dep_expectation
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import RiskMeasure, RiskSpec
from riskshed.oracle import brute_force_optimum


def random_lp(rng, n=6, m=4):
    # box-bounded, Ax <= b with b comfortably positive: always feasible
    A = rng.uniform(-2.0, 3.0, (m, n))
    return LinearProgram(
        objective=rng.uniform(-5.0, 5.0, n),
        lhs=A,
        senses=["<="] * m,
        rhs=np.abs(A).sum(axis=1) * rng.uniform(0.3, 1.2, m),
        lower=np.zeros(n),
        upper=np.full(n, rng.uniform(1.0, 4.0)),
    )


def test_hand_lp_with_duals():
    # min -x1 - 2 x2  s.t.  x1 + x2 <= 3, x2 <= 2, x >= 0 -> (1, 2), -5
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        lhs=[[1.0, 1.0], [0.0, 1.0]],
        senses=["<=", "<="],
        rhs=[3.0, 2.0],
        lower=[0.0, 0.0],
        upper=[np.inf, np.inf],
    )
    sol = ScipyBackend().solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-5.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-9)
    # duals: both rows tight, y = (-1, -1) for <= rows in min convention
    assert np.allclose(sol.duals, [-1.0, -1.0], atol=1e-9)


def test_lp_duals_certify_objective():
    rng = np.random.default_rng(3)
    backend = ScipyBackend()
    for trial in range(25):
        lp = random_lp(rng)
        sol = backend.solve_lp(lp)
        assert sol.status == OPTIMAL
        # strong duality with bound terms: c'x = y'b + l'max(rc,0) + u'min(rc,0)
        rc = lp.objective - lp.lhs.T @ sol.duals
        bound_part = lp.lower @ np.maximum(rc, 0.0)
        finite_u = np.where(np.isfinite(lp.upper), lp.upper, 0.0)
        bound_part += finite_u @ np.minimum(rc, 0.0)
        dual_obj = sol.duals @ lp.rhs + bound_part
        assert abs(dual_obj - sol.objective) < 1e-7 * max(1.0, abs(sol.objective))


def test_mixed_senses_duals_follow_the_convention():
    # rows of every sense around a known interior point: always feasible
    rng = np.random.default_rng(5)
    backend = ScipyBackend()
    for trial in range(25):
        n, m = 5, 6
        A = rng.uniform(-2.0, 3.0, (m, n))
        senses = list(rng.choice(["<=", "=", ">="], m))
        slack = np.select([np.array(senses) == "<=", np.array(senses) == ">="],
                          [1.0, -1.0], 0.0)
        lp = LinearProgram(objective=rng.uniform(-5.0, 5.0, n), lhs=A,
                           senses=senses, rhs=A @ np.full(n, 0.5) + slack,
                           lower=np.zeros(n), upper=np.ones(n))
        sol = backend.solve_lp(lp)
        assert sol.status == OPTIMAL
        le, ge = slack > 0, slack < 0
        assert np.all(sol.duals[le] <= 1e-9) and np.all(sol.duals[ge] >= -1e-9)
        rc = lp.objective - lp.lhs.T @ sol.duals
        dual_obj = sol.duals @ lp.rhs + lp.upper @ np.minimum(rc, 0.0)
        assert abs(dual_obj - sol.objective) < 1e-7 * max(1.0, abs(sol.objective))


def test_lhs_must_be_a_matrix_with_or_without_rows():
    with pytest.raises(ValueError, match="lhs must be 2-dimensional"):
        LinearProgram(objective=[1.0, 1.0], lhs=[1.0, 1.0], senses=[">="],
                      rhs=[1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
    bounds_only = LinearProgram(objective=[1.0, -1.0], lhs=np.zeros((0, 2)),
                                senses=[], rhs=[], lower=[0.0, 0.0],
                                upper=[1.0, 1.0])
    sol = ScipyBackend().solve_lp(bounds_only)
    assert sol.status == OPTIMAL and sol.objective == -1.0
    assert sol.duals.shape == (0,)
    mip = ScipyBackend().solve_mip(
        MixedBinaryProgram(lp=bounds_only, binary=[True, True]))
    assert mip.status == OPTIMAL and mip.x.tolist() == [0.0, 1.0]


def test_lp_infeasible_and_unbounded():
    bad = LinearProgram(objective=[1.0], lhs=[[1.0], [-1.0]],
                        senses=[">=", ">="], rhs=[2.0, -1.0],
                        lower=[0.0], upper=[np.inf])
    assert ScipyBackend().solve_lp(bad).status == INFEASIBLE
    free = LinearProgram(objective=[-1.0], lhs=[[0.0]], senses=["<="],
                         rhs=[1.0], lower=[0.0], upper=[np.inf])
    assert ScipyBackend().solve_lp(free).status == UNBOUNDED


def test_optimal_raises_solve_failed_with_the_status():
    bad = LinearProgram(objective=[1.0], lhs=[[1.0], [-1.0]],
                        senses=[">=", ">="], rhs=[2.0, -1.0],
                        lower=[0.0], upper=[1.0])
    backend = ScipyBackend()
    with pytest.raises(SolveFailed, match="^pinned lp came back infeasible$") as err:
        optimal(backend.solve_lp(bad), "pinned lp")
    assert err.value.status == INFEASIBLE
    with pytest.raises(SolveFailed) as err:
        optimal(backend.solve_mip(MixedBinaryProgram(lp=bad, binary=[True])),
                "pinned mip")
    assert err.value.status == INFEASIBLE
    good = backend.solve_mip(_hand_knapsack())
    assert optimal(good, "hand knapsack") is good


def test_equality_rows_and_free_variables():
    # min x + y  s.t.  x - y = 1,  x + y >= 2,  y free
    lp = LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, -1.0], [1.0, 1.0]],
                       senses=["=", ">="], rhs=[1.0, 2.0],
                       lower=[0.0, -np.inf], upper=[np.inf, np.inf])
    sol = ScipyBackend().solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 2.0) < 1e-9
    assert abs(sol.x[0] - sol.x[1] - 1.0) < 1e-9


def _hand_knapsack():
    # max 5a + 4b + 3c, 2a + 3b + c <= 5 binary -> a=b=1, value 9
    return MixedBinaryProgram(
        lp=LinearProgram(objective=[-5.0, -4.0, -3.0], lhs=[[2.0, 3.0, 1.0]],
                         senses=["<="], rhs=[5.0], lower=np.zeros(3),
                         upper=np.ones(3)),
        binary=np.ones(3, dtype=bool))


def test_mip_hand_knapsack():
    sol = ScipyBackend().solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-9.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 1.0, 0.0])


def test_mip_proves_infeasible():
    mip = MixedBinaryProgram(
        lp=LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 1.0], [-1.0, -1.0]],
                         senses=[">=", ">="], rhs=[1.5, -0.4],
                         lower=np.zeros(2), upper=np.ones(2)),
        binary=np.ones(2, dtype=bool))
    assert ScipyBackend().solve_mip(mip).status == INFEASIBLE


@pytest.mark.parametrize("seed", [3, 4])
def test_loose_gap_bound_is_proven(seed):
    # At a 5% gap HiGHS stops above the optimum on both instances; the
    # bound must still lie below the optimum.
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=seed, m1=3, m2=4))
    optimum = brute_force_optimum(problem, RiskSpec(RiskMeasure.EXPECTATION)).objective
    sol = ScipyBackend().solve_mip(build_dep_expectation(problem).program,
                                   gap_tol=0.05)
    assert sol.status == OPTIMAL
    assert sol.bound <= optimum + 1e-9 <= sol.objective + 2e-9
    assert sol.objective - sol.bound <= 0.05 * abs(sol.objective) + 1e-9


def test_scipy_mip_settings_survive_the_presolve_retry(monkeypatch):
    real, seen = scipy_backend.sciopt.milp, []

    def milp(**kwargs):
        seen.append(dict(kwargs["options"]))
        res = real(**kwargs)
        if len(seen) == 1:
            res.status = 4      # a HiGHS solve error: forces the retry
        return res

    monkeypatch.setattr(scipy_backend.sciopt, "milp", milp)
    sol = ScipyBackend().solve_mip(_hand_knapsack(), gap_tol=0.01, node_cap=7)
    assert sol.status == OPTIMAL and abs(sol.objective + 9.0) < 1e-9
    fixed = {"mip_rel_gap": 0.01, "node_limit": 7,
             "mip_heuristic_run_feasibility_jump": False}
    assert seen == [fixed, {**fixed, "presolve": False}]


def test_scipy_node_cap_returns_bound_without_retry(monkeypatch):
    # scipy 1.17 reports HiGHS's node-limit stop as status 4, like a solve
    # error; it must come back as NODE_CAP, not as a presolve-off retry.
    real, calls = scipy_backend.sciopt.milp, []

    def milp(**kwargs):
        calls.append(kwargs["options"].get("presolve", True))
        return real(**kwargs)

    monkeypatch.setattr(scipy_backend.sciopt, "milp", milp)
    problem = generate_knapsack(KnapsackGenSpec(10, 20, 10, seed=0, m1=5, m2=5))
    sol = ScipyBackend().solve_mip(build_dep_expectation(problem).program,
                                   node_cap=1)
    assert sol.status == NODE_CAP
    assert sol.x is not None and sol.bound <= sol.objective
    assert calls == [True]


def test_scipy_mip_raises_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        sol = ScipyBackend().solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert [str(w.message) for w in caught] == []


def test_get_backend_resolution():
    assert isinstance(get_backend(None), ScipyBackend)
    assert isinstance(get_backend("scipy"), ScipyBackend)
    inst = ScipyBackend()
    assert get_backend(inst) is inst
    for name in ("auto", "cplex"):
        with pytest.raises(ValueError):
            get_backend(name)


def test_backend_stats_accumulate():
    be = ScipyBackend()
    lp = LinearProgram(objective=[1.0], lhs=[[1.0]], senses=[">="],
                       rhs=[1.0], lower=[0.0], upper=[np.inf])
    be.solve_lp(lp)
    be.solve_lp(lp)
    assert be.stats.lp_solves == 2
    assert be.stats.as_dict()["lp_solves"] == 2


def test_memo_backend_solves_each_program_once():
    inner = ScipyBackend()
    memo = MemoBackend(inner)
    assert memo.stats is inner.stats and memo.name == inner.name
    lp = LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]], senses=[">="],
                       rhs=[1.0], lower=[0.0, 0.0], upper=[np.inf, np.inf])
    first = memo.solve_lp(lp)
    again = memo.solve_lp(LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]],
                                        senses=[">="], rhs=[1.0], lower=[0.0, 0.0],
                                        upper=[np.inf, np.inf]))
    assert again is first and inner.stats.lp_solves == 1
    # a change in any field is a new program
    memo.solve_lp(LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0]],
                                senses=["<="], rhs=[1.0], lower=[0.0, 0.0],
                                upper=[np.inf, np.inf]))
    assert inner.stats.lp_solves == 2
    mip = MixedBinaryProgram(lp=lp, binary=[True, False])
    a = memo.solve_mip(mip)
    assert memo.solve_mip(mip) is a
    assert memo.solve_mip(mip, gap_tol=1e-4) is not a
    assert memo.solve_mip(MixedBinaryProgram(lp=lp, binary=[False, True])) is not a
    assert inner.stats.mip_solves == 3
    with pytest.raises(ValueError):
        first.x[0] = 5.0
    with pytest.raises(ValueError):
        a.x[:] = 0.0
    with pytest.raises(ValueError):
        first.duals[0] = 0.0


def test_memo_backend_solves_once_under_threads():
    class Counting(ScipyBackend):
        def __init__(self):
            super().__init__()
            self.calls = 0
            self.lock = threading.Lock()

        def solve_lp(self, lp):
            with self.lock:
                self.calls += 1
            time.sleep(0.001)           # widen the window for a double solve
            return super().solve_lp(lp)

    inner = Counting()
    memo = MemoBackend(inner)
    lps = [LinearProgram(objective=[1.0], lhs=[[1.0]], senses=[">="],
                         rhs=[float(k)], lower=[0.0], upper=[np.inf])
           for k in range(4)]
    answers = [[] for _ in range(8)]

    def work(out):
        for _ in range(25):
            out.extend(memo.solve_lp(lp) for lp in lps)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in answers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert inner.calls == len(lps) == inner.stats.lp_solves
    assert all(len(out) == 100 for out in answers)
    assert {id(sol) for out in answers for sol in out} == {
        id(memo.solve_lp(lp)) for lp in lps}
