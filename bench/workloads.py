"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload is a fixed batch of operations.  ``setup`` builds the inputs
from the seed (this is part of set-up time), ``run_pass`` runs the batch
once through riskshed's public functions and returns its outcome with the
time each instance of the batch took, and ``check`` verifies the outcome
outside the timed region; it maps each failed operation to what was
wrong with it.
Checks test properties, not bytes, so that changes which legitimately
alter result files (tighter bounds, different tie-breaking) still pass.

An operation fails when it raises, when a CLI call exits with a code other
than 0 or 4, or when its check fails.
"""
from __future__ import annotations

import csv
import itertools
import time

import numpy as np

from riskshed import asd_bounds, cli, fileio, util
from riskshed.asd_bounds import AsdBoundsConfig
from riskshed.backend import ScipyBackend
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import RiskMeasure, RiskSpec, evaluate_objective, evaluate_solution

RHO = 0.5
FEAS_TOL = 1e-9


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def enumerated_optimum(problem, rho):
    """Exact semideviation optimum by enumerating every binary x and y.

    Independent of any solver: each scenario's recourse value is the
    cheapest binary y that satisfies its rows, found by testing all of
    them at once.  Sized for the asd_small instances (n1 = n2 = 6).
    """
    xs = np.array(list(itertools.product((0.0, 1.0), repeat=problem.n1)))
    xs = xs[[problem.first_stage_feasible(x, tol=FEAS_TOL) for x in xs]]
    totals = []
    for s in problem.scenarios:
        ys = np.array(list(itertools.product((0.0, 1.0), repeat=s.n2)))
        need = s.rhs[None, :] - xs @ s.technology.T
        have = ys @ s.recourse.T
        feasible = (have[None, :, :] >= need[:, None, :] - FEAS_TOL).all(axis=2)
        recourse = np.where(feasible, (ys @ s.cost)[None, :], np.inf).min(axis=1)
        totals.append(xs @ problem.first_stage_cost + recourse)
    f = np.array(totals).T
    p = problem.probabilities
    mean = f @ p
    return float((mean + rho * (np.maximum(f - mean[:, None], 0.0) @ p)).min())


def check_asd_state(problem, state, optimum=None):
    """Problems found with one bounding-driver result ([] when it is right)."""
    if isinstance(state, BaseException):
        return [f"raised {type(state).__name__}: {state}"]
    found = []
    if state.status not in ("converged", "iteration_cap"):
        found.append(f"status {state.status}")
    tol = 1e-9 * max(1.0, abs(state.upper))
    if not state.q_expectation - tol <= state.lower <= state.upper + tol:
        found.append(f"bound chain Q_E={state.q_expectation} <= lower={state.lower} "
                     f"<= upper={state.upper} broken")
    if optimum is not None:
        otol = 1e-7 * max(1.0, abs(optimum))
        if not (state.lower <= optimum + otol and optimum <= state.upper + otol):
            found.append(f"optimum {optimum} outside [{state.lower}, {state.upper}]")
        lowers = [row["lower"] for row in state.history]
        uppers = [row["upper"] for row in state.history]
        if not (all(a <= b + 1e-9 for a, b in zip(lowers, lowers[1:]))
                and all(a >= b - 1e-9 for a, b in zip(uppers, uppers[1:]))):
            found.append("history bounds are not monotone")
    spec = RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=RHO)
    value = evaluate_solution(problem, state.x_best, spec, backend=ScipyBackend(),
                              threads=1).objective
    if not _close(value, state.upper, 1e-9):
        found.append(f"upper {state.upper} != objective {value} at x_best")
    return found


class AsdBatch:
    """A batch of knapsack instances through ``rm_asd_solve``."""

    def __init__(self, shape, count, max_iters, oracle):
        self.shape = shape              # (n1, n2, scenarios, m1, m2)
        self.count = count
        self.max_iters = max_iters
        self.oracle = oracle
        self.ops = count

    def setup(self, seed, workdir):
        n1, n2, scens, m1, m2 = self.shape
        start = time.perf_counter()
        self.problems = [
            generate_knapsack(KnapsackGenSpec(n1, n2, scens, seed=self.count * seed + j,
                                              m1=m1, m2=m2))
            for j in range(self.count)]
        return {"knapsack.gen_s": time.perf_counter() - start}

    def run_pass(self, tracer, pass_dir):
        outcomes, times = [], []
        for k, problem in enumerate(self.problems):
            if tracer is not None:
                tracer.op = k
            config = AsdBoundsConfig(rho=RHO, max_iters=self.max_iters,
                                     backend=ScipyBackend(), threads=1)
            start = time.perf_counter()
            try:
                outcomes.append(asd_bounds.rm_asd_solve(problem, config))
            except Exception as exc:  # counted as a failed operation
                outcomes.append(exc)
            times.append(time.perf_counter() - start)
        return outcomes, times

    def check(self, outcomes):
        failures, gaps = {}, []
        for k, (problem, state) in enumerate(zip(self.problems, outcomes)):
            optimum = enumerated_optimum(problem, RHO) if self.oracle else None
            found = check_asd_state(problem, state, optimum)
            if found:
                failures[f"instance {k}"] = found
            if not isinstance(state, BaseException):
                gaps.append(util.gap_percent(state.lower, state.upper))
        return failures, {"final_gap_pct": float(np.mean(gaps)) if gaps else None}


class OrderingPipeline:
    """The ordering-policy comparison through ``riskshed.cli.main``.

    Each of ``instances`` generated instances goes through solve (neutral,
    then semideviation at two weights), simulate per plan, and report.
    """

    SIZE = ("--items", "4", "--periods", "8", "--scens", "5")
    POLICIES = (("neutral", "neutral", None), ("asd-0.5", "asd", 0.5),
                ("asd-0.9", "asd", 0.9))
    REPS = 2000

    def __init__(self, instances=16):
        self.instances = instances
        self.ops = instances * (2 * len(self.POLICIES) + 1)

    def setup(self, seed, workdir):
        self.seeds = [self.instances * seed + k for k in range(self.instances)]
        self.paths = [str(workdir / f"instance{k}.sp2.json") for k in range(self.instances)]
        for instance_seed, path in zip(self.seeds, self.paths):
            code = cli.main(["gen", "mssop", *self.SIZE, "--seed", str(instance_seed),
                             "--out", path])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"gen mssop exited with {code}")
        return {}

    def _argv(self, instance, seed, out):
        common = ["--backend", "scipy", "--threads", "1"]
        for label, risk, rho in self.POLICIES:
            rho_args = [] if rho is None else ["--rho", str(rho)]
            yield ("solve", label), [
                "solve", "--in", instance, "--risk", risk, *rho_args,
                "--method", "dep", "--collapse-mean-row", "--mip-gap", "1e-4",
                *common, "--out", str(out / f"{label}.result.json")]
        for label, _, _ in self.POLICIES:
            yield ("simulate", label), [
                "simulate", "--in", instance, "--plan", str(out / f"{label}.result.json"),
                "--reps", str(self.REPS), "--seed", str(seed), "--label", label,
                "--out", str(out / f"{label}.sim.csv")]
        yield ("report", ""), [
            "report", "--inputs",
            *[str(out / f"{label}.sim.csv") for label, _, _ in self.POLICIES],
            "--out", str(out / "report.csv")]

    def run_pass(self, tracer, pass_dir):
        outcomes, times = [], []
        for k, (instance, seed) in enumerate(zip(self.paths, self.seeds)):
            out = pass_dir / f"instance{k}"
            out.mkdir()
            start = time.perf_counter()
            for op, argv in self._argv(instance, seed, out):
                if tracer is not None:
                    tracer.op = len(outcomes)
                try:
                    code = cli.main(argv)
                except Exception as exc:  # counted as a failed operation
                    code = exc
                outcomes.append((k, op, code))
            times.append(time.perf_counter() - start)
        return {"dir": pass_dir, "ops": outcomes}, times

    def check(self, outcome):
        failures = {}
        problems = [fileio.load_problem(path).problem for path in self.paths]
        for k, (kind, label), code in outcome["ops"]:
            if code != 0:
                found = [f"exit {code!r}"]
            else:
                out = outcome["dir"] / f"instance{k}"
                try:
                    found = getattr(self, f"_check_{kind}")(problems[k], out, label)
                except (OSError, ValueError, KeyError, fileio.ParseError) as exc:
                    found = [f"unreadable output: {exc}"]
            if found:
                failures[f"instance {k} {kind} {label}".strip()] = found
        return failures, {}

    def _check_solve(self, problem, pass_dir, label):
        doc = fileio.load_result(str(pass_dir / f"{label}.result.json"))
        x = np.asarray(doc["x"], dtype=float)
        if not problem.first_stage_feasible(x):
            return ["plan is not first-stage feasible"]
        rho = doc["risk"]["rho"]
        spec = (RiskSpec(RiskMeasure.EXPECTATION) if rho is None
                else RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=rho))
        value = evaluate_objective(problem, x, spec, backend=ScipyBackend(), threads=1)
        if not _close(value, doc["objective"], 1e-6):
            return [f"objective {doc['objective']} != {value} evaluated at the plan"]
        return []

    def _sim_rows(self, pass_dir, label):
        with open(pass_dir / f"{label}.sim.csv", newline="") as fh:
            return [r for r in csv.DictReader(fh) if r["replication"] != "mean"]

    def _check_simulate(self, problem, pass_dir, label):
        rows = self._sim_rows(pass_dir, label)
        if len(rows) != self.REPS or {r["policy"] for r in rows} != {label}:
            return [f"{len(rows)} simulation rows, expected {self.REPS}"]
        return []

    def _check_report(self, problem, pass_dir, label):
        with open(pass_dir / "report.csv", newline="") as fh:
            report = {r["policy"]: r for r in csv.DictReader(fh)}
        found = []
        for policy, _, _ in self.POLICIES:
            rows = self._sim_rows(pass_dir, policy)
            expect = {
                "mean_lost_sales_events": np.mean([float(r["lost_sales_events"]) for r in rows]),
                "mean_lost_sales_quantity": np.mean([float(r["lost_sales_quantity"])
                                                     for r in rows]),
                "mean_recourse_cost": np.mean([float(r["recourse_cost"]) for r in rows]),
            }
            expect["mean_total_cost"] = (expect["mean_recourse_cost"]
                                         + float(rows[0]["replenishment_cost"]))
            got = report.get(policy)
            if got is None:
                found.append(f"policy {policy} missing from the report")
                continue
            found += [f"{policy} {key} {got[key]} != {value} recomputed"
                      for key, value in expect.items()
                      if not _close(float(got[key]), float(value), 1e-12)]
        return found


WORKLOADS = {
    # 10 criterion-4 instances: thousands of tiny, mostly repeated solves.
    "asd_small": lambda: AsdBatch((6, 6, 4, 3, 4), count=10, max_iters=15, oracle=True),
    # catalog-shape instances: the risk-neutral DEP proof dominates.
    "asd_mid": lambda: AsdBatch((10, 20, 10, 10, 20), count=3, max_iters=3, oracle=False),
    # the CLI pipeline: DEP MILPs, simulation and file output.  Many small
    # instances, because MILP time varies widely between larger ones.
    "ordering_pipeline": OrderingPipeline,
}
