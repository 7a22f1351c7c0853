"""Solver backends: reference simplex and branch-and-bound vs scipy/HiGHS.

The reference backend is the normative one; scipy acts as the independent
oracle.  Random programs are drawn with bounded data so both backends stay
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
    MixedBinaryProgram, ScipyBackend, SimplexBackend, get_backend, write_mps,
)
from riskshed.backend import bnb, scipy_backend, simplex
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


def test_simplex_hand_lp():
    # min -x1 - 2 x2  s.t.  x1 + x2 <= 3, x2 <= 2, x >= 0 -> (1, 2), -5
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        lhs=[[1.0, 1.0], [0.0, 1.0]],
        senses=["<=", "<="],
        rhs=[3.0, 2.0],
        lower=[0.0, 0.0],
        upper=[np.inf, np.inf],
    )
    sol = simplex.solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-5.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-9)
    # duals: both rows tight, y = (-1, -1) for <= rows in min convention
    assert np.allclose(sol.duals, [-1.0, -1.0], atol=1e-9)


def test_simplex_duals_certify_objective():
    rng = np.random.default_rng(3)
    for trial in range(25):
        lp = random_lp(rng)
        sol = simplex.solve_lp(lp)
        assert sol.status == OPTIMAL
        # strong duality with bound terms: c'x = y'b + l'max(rc,0) + u'min(rc,0)
        rc = lp.objective - lp.lhs.T @ sol.duals
        bound_part = lp.lower @ np.maximum(rc, 0.0)
        finite_u = np.where(np.isfinite(lp.upper), lp.upper, 0.0)
        bound_part += finite_u @ np.minimum(rc, 0.0)
        dual_obj = sol.duals @ lp.rhs + bound_part
        assert abs(dual_obj - sol.objective) < 1e-7 * max(1.0, abs(sol.objective))


def test_simplex_vs_scipy_objectives():
    rng = np.random.default_rng(11)
    for trial in range(30):
        lp = random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 7)))
        ours = simplex.solve_lp(lp)
        ref = ScipyBackend().solve_lp(lp)
        assert ours.status == ref.status == OPTIMAL
        assert abs(ours.objective - ref.objective) < 1e-7 * max(1.0, abs(ref.objective))


def test_simplex_infeasible_and_unbounded():
    bad = LinearProgram(objective=[1.0], lhs=[[1.0], [-1.0]],
                        senses=[">=", ">="], rhs=[2.0, -1.0],
                        lower=[0.0], upper=[np.inf])
    assert simplex.solve_lp(bad).status == INFEASIBLE
    free = LinearProgram(objective=[-1.0], lhs=[[0.0]], senses=["<="],
                         rhs=[1.0], lower=[0.0], upper=[np.inf])
    assert simplex.solve_lp(free).status == UNBOUNDED


def test_equality_rows_and_free_variables():
    # min x + y  s.t.  x - y = 1,  x + y >= 2,  y free
    lp = LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, -1.0], [1.0, 1.0]],
                       senses=["=", ">="], rhs=[1.0, 2.0],
                       lower=[0.0, -np.inf], upper=[np.inf, np.inf])
    sol = simplex.solve_lp(lp)
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


def test_bnb_hand_knapsack():
    sol = bnb.solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert abs(sol.objective - (-9.0)) < 1e-9
    assert np.allclose(sol.x, [1.0, 1.0, 0.0])


def test_bnb_vs_scipy_random_mips():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        lp = random_lp(rng, n=n, m=m)
        lp.lower = np.zeros(n)
        lp.upper = np.ones(n)
        mip = MixedBinaryProgram(lp=lp, binary=rng.random(n) < 0.7)
        ours = bnb.solve_mip(mip)
        ref = ScipyBackend().solve_mip(mip)
        assert ours.status == ref.status == OPTIMAL
        assert abs(ours.objective - ref.objective) < 1e-6 * max(1.0, abs(ref.objective))


def test_bnb_proves_infeasible():
    mip = MixedBinaryProgram(
        lp=LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 1.0], [-1.0, -1.0]],
                         senses=[">=", ">="], rhs=[1.5, -0.4],
                         lower=np.zeros(2), upper=np.ones(2)),
        binary=np.ones(2, dtype=bool))
    assert bnb.solve_mip(mip).status == INFEASIBLE


def test_bnb_node_cap_reports_bound():
    rng = np.random.default_rng(5)
    lp = random_lp(rng, n=14, m=6)
    lp.lower = np.zeros(14)
    lp.upper = np.ones(14)
    mip = MixedBinaryProgram(lp=lp, binary=np.ones(14, dtype=bool))
    sol = bnb.solve_mip(mip, node_cap=1)
    assert sol.status in (NODE_CAP, OPTIMAL)
    if sol.status == NODE_CAP:
        full = bnb.solve_mip(mip)
        assert sol.bound <= full.objective + 1e-9


@pytest.mark.parametrize("backend", ["scipy", "reference"])
@pytest.mark.parametrize("seed", [3, 4])
def test_loose_gap_bound_is_proven(backend, seed):
    # At a 5% gap HiGHS stops above the optimum on both instances and the
    # reference B&B on seed 4; the bound must still lie below the optimum.
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=seed, m1=3, m2=4))
    optimum = brute_force_optimum(problem, RiskSpec(RiskMeasure.EXPECTATION)).objective
    sol = get_backend(backend).solve_mip(build_dep_expectation(problem).program,
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


def test_scipy_mip_raises_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        sol = ScipyBackend().solve_mip(_hand_knapsack())
    assert sol.status == OPTIMAL
    assert [str(w.message) for w in caught] == []


def test_get_backend_resolution():
    assert isinstance(get_backend(None), SimplexBackend)
    assert isinstance(get_backend("reference"), SimplexBackend)
    assert isinstance(get_backend("scipy"), ScipyBackend)
    inst = SimplexBackend()
    assert get_backend(inst) is inst
    assert get_backend("auto").name in ("reference", "scipy")
    with pytest.raises(ValueError):
        get_backend("cplex")


def test_backend_stats_accumulate():
    be = SimplexBackend()
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
    class Counting(SimplexBackend):
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


MPS_GOLDEN = """\
* Minimization problem; no OBJSENSE record is emitted.
NAME          TINY
ROWS
 N  OBJ
 L  R0000000
 G  R0000001
COLUMNS
    C0000000  OBJ       -1             R0000000  2
    C0000000  R0000001  1
    M0000000  'MARKER'                 'INTORG'
    C0000001  OBJ       -2             R0000000  1
    M0000001  'MARKER'                 'INTEND'
    C0000002  R0000000  1              R0000001  -1
RHS
    RHS       R0000000  4
    RHS       R0000001  0.5
BOUNDS
 UP BND       C0000000  3
 BV BND       C0000001
 FR BND       C0000002
ENDATA
"""


def test_mps_golden():
    lp = LinearProgram(
        objective=[-1.0, -2.0, 0.0],
        lhs=[[2.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
        senses=["<=", ">="],
        rhs=[4.0, 0.5],
        lower=[0.0, 0.0, -np.inf],
        upper=[3.0, 1.0, np.inf],
    )
    mip = MixedBinaryProgram(lp=lp, binary=np.array([False, True, False]))
    assert write_mps(mip, name="TINY") == MPS_GOLDEN


def test_mps_roundtrip_through_scipy():
    # not a parser test: just confirm the export runs on a solved program
    rng = np.random.default_rng(2)
    lp = random_lp(rng)
    text = write_mps(lp)
    assert text.startswith("*")
    assert "ENDATA" in text
    assert text.count("\n") > lp.num_vars
