"""Tests of the benchmark itself:  python3 -m pytest bench -q"""
import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from riskshed.knapsack import KnapsackGenSpec, generate_knapsack  # noqa: E402
from riskshed.model import RiskSpec  # noqa: E402
from riskshed.oracle import brute_force_optimum  # noqa: E402
from riskshed.backend import ScipyBackend  # noqa: E402

REQUIRED_LAYERS = """
backend.mip_calls backend.lp_calls backend.mip_s backend.lp_s backend.highs_s
backend.adapter_s backend.nodes backend.lp_iterations
backend.scenario_eval_calls backend.scenario_eval_s backend.subproblem_calls
backend.subproblem_s backend.master_calls backend.master_s backend.dep_calls
backend.dep_s
model.scenario_evals model.scenario_evals_distinct model.repeat_share model.eval_s
lshaped.iterations lshaped.subproblem_rounds lshaped.subproblem_s
lshaped.master_builds lshaped.master_build_s lshaped.cuts_added
lshaped.duplicate_cut_share
asd_bounds.init_s asd_bounds.iterations asd_bounds.stalled_iterations
asd_bounds.cut_s asd_bounds.converged asd_bounds.iteration_cap
dep.builds dep.build_s dep.peak_mb dep.nnz dep.dense_mb
mssop.builds mssop.build_s mssop.simulate_s mssop.sim_reps
fileio.loads fileio.load_s fileio.saves fileio.save_s fileio.bytes_written
cli.solve_s cli.simulate_s cli.report_s
knapsack.gen_s oracle.check_s proc.cpu_s proc.trace_overhead_pct
""".split()
REQUIRED_END_TO_END = ["instance_s", "wall_s", "setup_s", "peak_rss_mb", "failed_share", "final_gap_pct"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("backend.mip_calls", "backend.lp_calls", "backend.nodes",
          "model.scenario_evals", "model.scenario_evals_distinct",
          "lshaped.cuts_added")


def small_asd(count=2):
    batch = workloads.AsdBatch((6, 6, 4, 3, 4), count=count, max_iters=4, oracle=True)
    batch.setup(0, None)
    return batch


class SmallOrdering(workloads.OrderingPipeline):
    SIZE = ("--items", "2", "--periods", "3", "--scens", "4")
    REPS = 25

    def __init__(self):
        super().__init__(instances=1)


def traced_pass(workload, pass_dir):
    tracer = Tracer().install()
    try:
        outcome, _ = workload.run_pass(tracer, pass_dir)
    finally:
        tracer.uninstall()
    return tracer, outcome


def test_metric_names_are_well_formed_and_complete():
    names = list(run.END_TO_END) + list(run.REPORTED) + list(run.LAYERS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert set(REQUIRED_END_TO_END) <= set(run.END_TO_END) | set(run.REPORTED)
    assert set(REQUIRED_LAYERS) <= set(run.LAYERS)
    assert set(run.WORKLOADS) == {"asd_small", "asd_mid", "ordering_pipeline"}
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == ["asd_small", "ordering_pipeline"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        n: run.LAYERS[n] for n in run.RESULT_LAYERS}


def test_tracer_emits_every_layer_metric(tmp_path):
    tracer, _ = traced_pass(small_asd(1), tmp_path)
    produced = set(tracer.metrics()) | {"knapsack.gen_s", "oracle.check_s",
                                        "proc.cpu_s", "proc.trace_overhead_pct"}
    assert produced == set(run.LAYERS)


def test_traced_counts_repeat_and_backend_split_adds_up(tmp_path):
    first, _ = traced_pass(small_asd(), tmp_path)
    second, _ = traced_pass(small_asd(), tmp_path)
    a, b = first.metrics(), second.metrics()
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["backend.mip_calls"] > 0 and a["model.scenario_evals"] > 0
    assert a["backend.other_calls"] == 0
    split = sum(a[f"backend.{c}_s"] for c in ("scenario_eval", "subproblem", "master",
                                              "dep", "other"))
    assert split == pytest.approx(a["backend.mip_s"] + a["backend.lp_s"], rel=1e-9)
    assert 0 < a["backend.highs_s"] < a["backend.mip_s"] + a["backend.lp_s"]


def test_tracing_leaves_results_unchanged(tmp_path):
    batch = small_asd()
    plain, _ = batch.run_pass(None, tmp_path)
    _, traced = traced_pass(batch, tmp_path)
    assert [(s.lower, s.upper, s.status) for s in plain] == \
           [(s.lower, s.upper, s.status) for s in traced]


def test_enumerated_optimum_matches_the_package_oracle():
    for seed in (0, 5):
        problem = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=seed, m1=3, m2=4))
        expect = brute_force_optimum(problem, RiskSpec("absolute-semideviation", rho=0.5),
                                     backend=ScipyBackend()).objective
        assert workloads.enumerated_optimum(problem, 0.5) == pytest.approx(expect, rel=1e-12)


def test_corrupted_asd_result_counts_as_a_failure():
    batch = small_asd(1)
    outcomes, _ = batch.run_pass(None, None)
    assert batch.check(outcomes)[0] == {}
    optimum = workloads.enumerated_optimum(batch.problems[0], workloads.RHO)
    bad = copy.deepcopy(outcomes[0])
    bad.lower = optimum + 1.0
    bad.upper = optimum + 2.0
    failures, _ = batch.check([bad])
    assert list(failures) == ["instance 0"]
    assert batch.check([RuntimeError("boom")])[0]


def test_corrupted_pipeline_output_counts_as_a_failure(tmp_path):
    pipeline = SmallOrdering()
    pipeline.setup(3, tmp_path)
    pass_dir = tmp_path / "pass0"
    pass_dir.mkdir()
    outcome, _ = pipeline.run_pass(None, pass_dir)
    assert pipeline.check(outcome)[0] == {}
    report = pass_dir / "instance0" / "report.csv"
    report.write_text(report.read_text().replace("neutral,25,", "neutral,25,1"))
    assert list(pipeline.check(outcome)[0]) == ["instance 0 report"]
    outcome["ops"][0] = outcome["ops"][0][:2] + (4,)
    assert "instance 0 solve neutral" in pipeline.check(outcome)[0]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "asd_small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
