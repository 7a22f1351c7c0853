"""Acceptance suite: one verdict line per criterion.

Each test prints "[criterion N] PASS|FAIL ..." before asserting, so a
plain ``pytest tests/test_acceptance.py -s`` reads as a checklist.  The
criteria pin tolerances and runtime budgets; every quantitative check
runs against an independent route (enumeration oracle, closed form, or
transcribed benchmark rows), never against the code under test alone.
"""
import os
import time

import numpy as np
import pytest

from riskshed import cli, util
from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve
from riskshed.backend import ScipyBackend
from riskshed.dep import (
    build_dep_absolute_semideviation, build_dep_expectation,
    build_dep_expected_excess, build_dep_modified_expected_excess,
)
from riskshed.knapsack import KnapsackGenSpec, audit_dimensions, generate_knapsack
from riskshed.lshaped import lshaped_solve
from riskshed.model import (
    RiskSpec, Scenario, TwoStageProblem, risk_functional, scenario_costs,
)
from riskshed.mssop import (
    BREAKPOINT_WEIGHT, FREIGHT_COST, compare_policies,
    generate_mssop_instance, sample_demand, simulate_policy,
)
from riskshed.oracle import brute_force_optimum, freight_interpolation

BACKEND = ScipyBackend()


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def mip_opt(art, gap=1e-9):
    sol = BACKEND.solve_mip(art.program, gap_tol=gap)
    assert sol.status == "optimal", sol.status
    return sol.objective


# -- 1 ----------------------------------------------------------------------

STRUCTURE_CATALOG = {
    (10, 20, 50): (1010, 1010, 30100),
    (10, 20, 100): (2010, 2010, 60100),
    (20, 30, 50): (1520, 1010, 50200),
    (20, 30, 100): (3020, 2010, 100200),
    (30, 40, 50): (2030, 1010, 70300),
    (30, 40, 100): (4030, 2010, 140300),
    (40, 50, 50): (2540, 1010, 90400),
    (40, 50, 100): (5040, 2010, 180400),
}


def test_criterion_01_structure_catalog():
    """All eight catalog rows (m1=10, m2=20) reproduce exactly, under 1s."""
    start = time.perf_counter()
    bad = []
    for (n1, n2, S), want in STRUCTURE_CATALOG.items():
        got = audit_dimensions(generate_knapsack(
            KnapsackGenSpec(n1, n2, S, seed=1)))
        if got != want:
            bad.append((n1, n2, S, got, want))
    elapsed = time.perf_counter() - start
    verdict(1, not bad and elapsed < 1.0,
            f"structure catalog exact on {8 - len(bad)}/8 rows "
            f"in {elapsed:.2f}s (budget 1s)")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_bound_chain():
    """Q_E(x) <= Q'_EE(x) + rho*eta <= Q_ASD(x) whenever eta <= mean cost."""
    rng = np.random.Generator(np.random.Philox(77))
    draws = 0
    violations = 0
    worst = 0.0
    for seed in range(6):
        problem = generate_knapsack(
            KnapsackGenSpec(5, 6, 4, seed=seed, m1=3, m2=4))
        p = problem.probabilities
        xs = [np.zeros(5)]
        while len(xs) < 5:
            x = rng.integers(0, 2, 5).astype(float)
            if problem.first_stage_feasible(x):
                xs.append(x)
        for x in xs:
            cx = float(problem.first_stage_cost @ x)
            totals = cx + scenario_costs(problem, x, backend=BACKEND)
            mean = float(p @ totals)
            span = float(totals.max() - totals.min()) + 1.0
            for _ in range(5):
                rho = float(rng.uniform(0.0, 1.0))
                eta = mean - float(rng.uniform(0.0, span))
                q_e = risk_functional(totals, p, RiskSpec("expectation"))
                q_mod = risk_functional(
                    totals, p, RiskSpec("modified-expected-excess",
                                        rho=rho, eta=eta))
                q_asd = risk_functional(
                    totals, p, RiskSpec("absolute-semideviation", rho=rho))
                mid = q_mod + rho * eta
                draws += 1
                gap = max(q_e - mid, mid - q_asd)
                worst = max(worst, gap)
                if gap > 1e-8:
                    violations += 1
    verdict(2, draws >= 100 and violations == 0,
            f"bound chain held on {draws - violations}/{draws} draws "
            f"(need >=100), worst slack breach {worst:.2e} (tol 1e-8)")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_extensive_forms_match_oracle():
    """Semideviation and excess extensive forms equal enumeration optima."""
    rng = np.random.Generator(np.random.Philox(5150))
    start = time.perf_counter()
    bad = 0
    for k in range(20):
        n1 = int(rng.integers(4, 7))
        n2 = int(rng.integers(4, 7))
        S = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.2, 0.9))
        problem = generate_knapsack(
            KnapsackGenSpec(n1, n2, S, seed=300 + k, m1=3, m2=4))
        asd_oracle = brute_force_optimum(
            problem, RiskSpec("absolute-semideviation", rho=rho),
            backend=BACKEND).objective
        asd_dep = mip_opt(build_dep_absolute_semideviation(problem, rho))
        eta = mip_opt(build_dep_expectation(problem))
        ee_oracle = brute_force_optimum(
            problem, RiskSpec("expected-excess", rho=rho, eta=eta),
            backend=BACKEND).objective
        ee_dep = mip_opt(build_dep_expected_excess(problem, rho, eta))
        for a, b in ((asd_oracle, asd_dep), (ee_oracle, ee_dep)):
            if abs(a - b) > 1e-6 * max(1.0, abs(a)):
                bad += 1
    elapsed = time.perf_counter() - start
    verdict(3, bad == 0 and elapsed < 60.0,
            f"extensive forms matched the oracle on {40 - bad}/40 "
            f"comparisons across 20 instances in {elapsed:.1f}s (budget 60s)")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_bounding_driver_sandwich():
    """Bounds bracket the enumeration optimum with monotone progress."""
    start = time.perf_counter()
    bad = []
    closed = 0
    for seed in range(20):
        problem = generate_knapsack(
            KnapsackGenSpec(6, 6, 4, seed=seed, m1=3, m2=4))
        opt = brute_force_optimum(
            problem, RiskSpec("absolute-semideviation", rho=0.5),
            backend=BACKEND).objective
        state = rm_asd_solve(problem, AsdBoundsConfig(
            rho=0.5, max_iters=15, backend=BACKEND))
        tol = 1e-7 * max(1.0, abs(opt))
        lowers = [row["lower"] for row in state.history]
        uppers = [row["upper"] for row in state.history]
        sandwich = state.lower <= opt + tol and opt <= state.upper + tol
        monotone = (all(a <= b + 1e-9 for a, b in zip(lowers, lowers[1:]))
                    and all(a >= b - 1e-9 for a, b in zip(uppers, uppers[1:])))
        if not (sandwich and monotone):
            bad.append(seed)
        if state.gap_percent() <= 5.0:
            closed += 1
    elapsed = time.perf_counter() - start
    verdict(4, not bad and closed >= 10 and elapsed < 600.0,
            f"sandwich+monotone on {20 - len(bad)}/20 instances, final gap "
            f"<=5% on {closed}/20 (need >=10), {elapsed:.1f}s (budget 600s)")


# -- 5 ----------------------------------------------------------------------

# forty recorded (LB, UB, Gap%) rows from the benchmark bound tables
BENCH_ROWS = [
    ("knaps.10.20.50.a", -89.82, -87.61, 2.46),
    ("knaps.10.20.50.b", -91.30, -89.08, 2.43),
    ("knaps.10.20.50.c", -82.99, -80.23, 3.32),
    ("knaps.10.20.50.d", -83.44, -80.24, 3.83),
    ("knaps.10.20.50.e", -88.49, -86.56, 2.18),
    ("knaps.10.20.100.a", -62.64, -59.60, 4.84),
    ("knaps.10.20.100.b", -65.15, -63.51, 2.51),
    ("knaps.10.20.100.c", -59.22, -58.33, 1.49),
    ("knaps.10.20.100.d", -59.21, -56.59, 4.42),
    ("knaps.10.20.100.e", -59.42, -57.12, 3.87),
    ("knaps.20.30.50.a", -93.62, -91.83, 1.91),
    ("knaps.20.30.50.b", -91.70, -90.17, 1.67),
    ("knaps.20.30.50.c", -90.14, -88.54, 1.77),
    ("knaps.20.30.50.d", -90.44, -88.04, 2.66),
    ("knaps.20.30.50.e", -91.88, -90.10, 1.93),
    ("knaps.20.30.100.a", -68.76, -67.15, 2.33),
    ("knaps.20.30.100.b", -61.03, -58.47, 4.20),
    ("knaps.20.30.100.c", -64.77, -62.35, 3.74),
    ("knaps.20.30.100.d", -64.16, -61.89, 3.54),
    ("knaps.20.30.100.e", -60.92, -57.80, 5.13),
    ("knaps.30.40.50.a", -95.22, -94.33, 0.94),
    ("knaps.30.40.50.b", -94.02, -92.07, 2.07),
    ("knaps.30.40.50.c", -93.86, -92.84, 1.08),
    ("knaps.30.40.50.d", -94.90, -93.18, 1.81),
    ("knaps.30.40.50.e", -96.09, -95.61, 0.49),
    ("knaps.30.40.100.a", -67.11, -63.72, 5.05),
    ("knaps.30.40.100.b", -68.66, -66.61, 2.98),
    ("knaps.30.40.100.c", -62.96, -61.47, 2.37),
    ("knaps.30.40.100.d", -65.73, -64.02, 2.61),
    ("knaps.30.40.100.e", -64.12, -62.89, 1.92),
    ("knaps.40.50.50.a", -95.13, -93.94, 1.26),
    ("knaps.40.50.50.b", -96.04, -94.97, 1.12),
    ("knaps.40.50.50.c", -93.89, -93.70, 0.20),
    ("knaps.40.50.50.c2", -96.84, -96.60, 0.24),
    ("knaps.40.50.50.d", -95.96, -95.81, 0.16),
    ("knaps.40.50.100.a", -66.61, -65.77, 1.26),
    ("knaps.40.50.100.b", -67.55, -67.19, 0.53),
    ("knaps.40.50.100.c", -68.67, -65.54, 4.57),
    ("knaps.40.50.100.d", -66.98, -66.26, 1.07),
    ("knaps.40.50.100.e", -66.44, -65.08, 2.04),
]


def test_criterion_05_gap_convention():
    """The reported gap formula reproduces all 40 recorded rows to +-0.02."""
    worst = 0.0
    bad = []
    for name, lb, ub, printed in BENCH_ROWS:
        err = abs(util.gap_percent(lb, ub) - printed)
        worst = max(worst, err)
        if err > 0.02:
            bad.append(name)
    # the worked reference row from the criterion statement
    assert util.gap_percent(-89.82, -87.61) == pytest.approx(2.46, abs=0.02)
    verdict(5, not bad,
            f"gap formula matched {40 - len(bad)}/40 recorded rows, "
            f"worst deviation {worst:.4f} (tol 0.02)")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_reduction_identities():
    """rho=0 collapses every measure; one scenario collapses semideviation."""
    worst = 0.0
    checks = 0
    for seed in range(10):
        problem = generate_knapsack(
            KnapsackGenSpec(4, 5, 3, seed=40 + seed, m1=3, m2=4))
        base = mip_opt(build_dep_expectation(problem))
        others = (
            mip_opt(build_dep_expected_excess(problem, 0.0, 0.0)),
            mip_opt(build_dep_modified_expected_excess(problem, 0.0, 0.0)),
            mip_opt(build_dep_absolute_semideviation(problem, 0.0)),
        )
        single = generate_knapsack(
            KnapsackGenSpec(4, 5, 1, seed=40 + seed, m1=3, m2=4))
        pair = (mip_opt(build_dep_absolute_semideviation(single, 0.8)),
                mip_opt(build_dep_expectation(single)))
        for val in others:
            worst = max(worst, abs(val - base) / max(1.0, abs(base)))
            checks += 1
        worst = max(worst, abs(pair[0] - pair[1]) / max(1.0, abs(pair[1])))
        checks += 1
    verdict(6, worst <= 1e-9,
            f"reduction identities held on {checks} comparisons over 10 "
            f"toys, worst relative deviation {worst:.2e} (tol 1e-9)")


# -- 7 ----------------------------------------------------------------------


def integral_recourse_problem(seed, n=7, S=5):
    """Shortfall-covering second stage: rows y_j + x_j >= d_j(w) with unit
    coefficients, so the relaxed recourse is integral at every binary x."""
    rng = np.random.Generator(np.random.Philox(seed))
    c = rng.uniform(0.5, 3.0, n)
    q = rng.uniform(2.0, 10.0, n)
    scenarios = []
    for _ in range(S):
        d = rng.integers(0, 2, n).astype(float)
        scenarios.append(Scenario(
            probability=1.0 / S, cost=q.copy(), technology=np.eye(n),
            recourse=np.eye(n), rhs=d,
            integrality=np.ones(n, dtype=bool)))
    return TwoStageProblem(
        first_stage_cost=c, first_stage_matrix=np.ones((1, n)),
        first_stage_rhs=np.zeros(1), scenarios=scenarios,
        first_stage_integrality=np.ones(n, dtype=bool),
        name=f"cover.{seed}")


def test_criterion_07_decomposition_exact_on_integral_recourse():
    """Decomposition equals the extensive-form optimum at 1e-6."""
    start = time.perf_counter()
    worst = 0.0
    converged = 0
    for seed in range(10):
        problem = integral_recourse_problem(900 + seed)
        eta = mip_opt(build_dep_expectation(problem))
        rho = 0.35
        dep = mip_opt(build_dep_modified_expected_excess(problem, rho, eta))
        res = lshaped_solve(problem, rho, eta, backend=BACKEND, tol=1e-8,
                            max_iters=80)
        if res.status == "converged":
            converged += 1
        worst = max(worst, abs(res.master_objective - dep) / max(1.0, abs(dep)))
    elapsed = time.perf_counter() - start
    verdict(7, converged == 10 and worst <= 1e-6 and elapsed < 120.0,
            f"decomposition converged on {converged}/10 integral-recourse "
            f"instances, worst relative deviation {worst:.2e} (tol 1e-6), "
            f"{elapsed:.1f}s (budget 120s)")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_ordering_policies_directional():
    """Risk-averse plans lose fewer sales at higher replenishment cost."""
    start = time.perf_counter()
    instance = generate_mssop_instance(5, 10, 25, seed=0)
    runs = compare_policies(instance, rho_list=(0.5, 0.9), replications=5,
                            seed=0, backend=BACKEND, mip_gap=1e-4)
    by = {label: rep for label, _, rep in runs}
    neutral, mid, high = by["neutral"], by["asd-0.5"], by["asd-0.9"]
    ok_events = neutral.mean_events >= mid.mean_events >= high.mean_events
    ok_qty = (neutral.mean_quantity >= mid.mean_quantity
              >= high.mean_quantity)
    ok_cost = (neutral.mean_total_cost <= mid.mean_total_cost
               <= high.mean_total_cost)
    elapsed = time.perf_counter() - start
    verdict(8, ok_events and ok_qty and ok_cost and elapsed < 600.0,
            "lost-sales ordering "
            f"events {neutral.mean_events:.1f}>={mid.mean_events:.1f}"
            f">={high.mean_events:.1f} [{'ok' if ok_events else 'BAD'}], "
            f"quantity {neutral.mean_quantity:.1f}>={mid.mean_quantity:.1f}"
            f">={high.mean_quantity:.1f} [{'ok' if ok_qty else 'BAD'}], "
            f"total cost {neutral.mean_total_cost:.0f}<="
            f"{mid.mean_total_cost:.0f}<={high.mean_total_cost:.0f} "
            f"[{'ok' if ok_cost else 'BAD'}], {elapsed:.0f}s (budget 600s)")


# -- 9 ----------------------------------------------------------------------


def lp_freight(weight, m, f):
    """Independent route: per-pair two-variable LPs via the generic solver."""
    from scipy.optimize import linprog
    if weight <= 0:
        return 0.0
    best = np.inf
    for j in range(len(m) - 1):
        res = linprog(c=[f[j], f[j + 1]],
                      A_ub=[[-m[j], -m[j + 1]], [1.0, 1.0]],
                      b_ub=[-weight, 1.0], bounds=[(0, None), (0, None)],
                      method="highs")
        if res.status == 0:
            best = min(best, res.fun)
    return best


def test_criterion_09_simulation_and_freight_invariants():
    """Stock conservation over 1000 trajectories; envelope on 100 weights."""
    rng = np.random.Generator(np.random.Philox(31))
    trajectories = 0
    balance_bad = 0
    for k in range(10):
        inst = generate_mssop_instance(3, 6, 2, seed=60 + k)
        for _ in range(10):
            orders = rng.integers(0, 180, size=(3, 6))
            streams = np.random.SeedSequence(int(rng.integers(1 << 30))).spawn(10)
            for stream in streams:
                demand = sample_demand(
                    inst, np.random.Generator(np.random.Philox(stream)))
                trajectories += 1
                for i in range(3):
                    v_prev = int(inst.initial_inventory[i])
                    for t in range(6):
                        avail = v_prev + int(orders[i, t])
                        d = int(demand[i, t])
                        u = max(0, d - avail)
                        v = max(0, avail - d)
                        # conservation, sales cap, no stock during shortage
                        if (v - v_prev - int(orders[i, t]) - u + d != 0
                                or u > d or (u > 0 and v != 0)):
                            balance_bad += 1
                        v_prev = v
    weight_bad = 0
    worst = 0.0
    weights = list(rng.uniform(0.0, 70000.0, 98)) + [0.0, 70000.0]
    for w in weights:
        a = freight_interpolation(w, BREAKPOINT_WEIGHT, FREIGHT_COST)
        b = lp_freight(w, BREAKPOINT_WEIGHT, FREIGHT_COST)
        err = abs(a - b) / max(1.0, abs(b))
        worst = max(worst, err)
        if err > 1e-7:
            weight_bad += 1
    verdict(9, trajectories >= 1000 and balance_bad == 0 and weight_bad == 0,
            f"stock balance clean on {trajectories} trajectories "
            f"({balance_bad} violations); freight envelope matched the LP "
            f"route on {len(weights) - weight_bad}/{len(weights)} weights, "
            f"worst {worst:.2e}")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_replay_determinism(tmp_path):
    """Every run replayed from its manifest rewrites identical artifacts."""
    base = tmp_path / "orig"
    base.mkdir()
    k = str(base / "k.sp2.json")
    m = str(base / "m.sp2.json")
    runs = [
        ["gen", "knapsack", "--n1", "5", "--n2", "6", "--scens", "3",
         "--seed", "2", "--m1", "3", "--m2", "4", "--out", k],
        ["gen", "mssop", "--items", "2", "--periods", "2", "--scens", "3",
         "--seed", "1", "--out", m],
        ["solve", "--in", k, "--risk", "asd", "--rho", "0.5", "--backend",
         "scipy", "--out", str(base / "a.result.json")],
        ["solve", "--in", k, "--risk", "asd", "--rho", "0.5", "--method",
         "rm-asd", "--max-iters", "8", "--backend", "scipy",
         "--out", str(base / "r.result.json")],
        ["solve", "--in", k, "--risk", "mod-ee", "--rho", "0.4", "--eta",
         "-900", "--method", "lshaped", "--backend", "scipy",
         "--out", str(base / "l.result.json")],
        ["solve", "--in", m, "--risk", "neutral", "--backend", "scipy",
         "--mip-gap", "1e-4", "--out", str(base / "plan.result.json")],
        ["simulate", "--in", m, "--plan", str(base / "plan.result.json"),
         "--reps", "3", "--seed", "2", "--out", str(base / "runs.sim.csv")],
        ["report", "--inputs", str(base / "runs.sim.csv"),
         "--out", str(base / "agg.csv")],
    ]
    codes = [cli.main(argv) for argv in runs]
    assert all(code in (0, 4) for code in codes), codes

    compared = 0
    mismatched = []
    for idx, argv in enumerate(runs):
        manifest_path = argv[argv.index("--out") + 1] + cli.MANIFEST_SUFFIX
        doc = cli.load_manifest(manifest_path)
        replay_dir = tmp_path / f"replay{idx}"
        code = cli.main(["rerun", "--manifest", manifest_path,
                         "--out-dir", str(replay_dir)])
        assert code == codes[idx], (idx, code, codes[idx])
        for out_path in doc["outputs"]:
            name = os.path.basename(out_path)
            a = open(out_path, "rb").read()
            b = open(replay_dir / name, "rb").read()
            compared += 1
            if a != b:
                mismatched.append(name)
    verdict(10, compared >= len(runs) and not mismatched,
            f"replay reproduced {compared - len(mismatched)}/{compared} "
            f"artifacts byte-for-byte across {len(runs)} runs"
            + (f"; mismatched {mismatched}" if mismatched else ""))
