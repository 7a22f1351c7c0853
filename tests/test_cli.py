"""Operator surface: dispatch, exit codes, manifests, replays."""
import csv
import dataclasses
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest

from riskshed import cli, fileio, util
from riskshed.knapsack import KnapsackGenSpec, audit_dimensions, generate_knapsack
from riskshed.model import (RiskMeasure, RiskSpec, Scenario, TwoStageProblem,
                            evaluate_objective)
from riskshed.oracle import brute_force_optimum

from conftest import python_on_src, svc_problem, unbounded_recourse_problem


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def knap_file(tmp_path):
    path = str(tmp_path / "toy.sp2.json")
    code = run("gen", "knapsack", "--n1", "5", "--n2", "6", "--scens", "3",
               "--seed", "4", "--m1", "3", "--m2", "4", "--out", path)
    assert code == 0
    return path


@pytest.fixture
def mssop_file(tmp_path):
    path = str(tmp_path / "ord.sp2.json")
    code = run("gen", "mssop", "--items", "2", "--periods", "2", "--scens",
               "3", "--seed", "1", "--out", path)
    assert code == 0
    return path


def test_gen_audit_line(tmp_path, capsys):
    path = str(tmp_path / "k.sp2.json")
    assert run("gen", "knapsack", "--n1", "5", "--n2", "6", "--scens", "3",
               "--seed", "4", "--m1", "3", "--m2", "4", "--out", path) == 0
    out = capsys.readouterr().out
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=4, m1=3, m2=4))
    v, c, z = audit_dimensions(problem)
    assert f"vars={v} constr={c} nnz={z}" in out
    assert os.path.exists(path)
    assert os.path.exists(path + cli.MANIFEST_SUFFIX)


def test_solve_dep_writes_result_history_manifest(knap_file, tmp_path, capsys):
    out = str(tmp_path / "n.result.json")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--backend", "scipy", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "LB" in printed and "UB" in printed and "Gap(%)" in printed
    doc = fileio.load_result(out)
    assert doc["status"] == "optimal"
    assert doc["method"] == "dep"
    assert doc["risk"]["measure"] == "expectation"
    assert doc["gap_percent"] == 0.0
    assert doc["lower"] == doc["upper"] == doc["objective"]
    assert doc["backend"] == "scipy"
    assert doc["instance"]["checksum"].startswith("sha256:")
    hist = str(tmp_path / "n.history.csv")
    assert os.path.exists(hist)
    assert open(hist).readline().strip() == "iteration,lower,upper,gap,event"
    manifest = cli.load_manifest(out + cli.MANIFEST_SUFFIX)
    assert manifest["subcommand"] == "solve"
    assert manifest["exit_status"] == 0
    assert manifest["config"]["risk"] == "neutral"
    assert knap_file in manifest["inputs"]



def test_solve_dep_at_a_gap_reports_the_proven_bound(knap_file, tmp_path):
    out = str(tmp_path / "g.result.json")
    assert run("solve", "--in", knap_file, "--risk", "neutral", "--mip-gap",
               "0.05", "--backend", "scipy", "--out", out) == 0
    doc = fileio.load_result(out)
    optimum = brute_force_optimum(fileio.load_problem(knap_file).problem,
                                  RiskSpec(RiskMeasure.EXPECTATION)).objective
    assert doc["status"] == "optimal"
    assert doc["lower"] <= optimum <= doc["objective"] == doc["upper"]
    assert doc["lower"] < doc["objective"]      # HiGHS stops short here
    assert doc["gap_percent"] == util.gap_percent(doc["lower"], doc["objective"])
    with open(str(tmp_path / "g.history.csv"), newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["lower"]) == doc["lower"]
    assert float(row["gap"]) == doc["objective"] - doc["lower"]

def test_solve_methods_agree(knap_file, tmp_path):
    outs = {}
    for tag, extra in (
            ("dep", ["--method", "dep"]),
            ("rm", ["--method", "rm-asd", "--max-iters", "25",
                    "--epsilon", "5.0"])):
        out = str(tmp_path / f"{tag}.result.json")
        code = run("solve", "--in", knap_file, "--risk", "asd", "--rho",
                   "0.5", "--backend", "scipy", "--out", out, *extra)
        assert code == 0
        outs[tag] = fileio.load_result(out)
    dep, rm = outs["dep"], outs["rm"]
    assert rm["status"] == "converged"
    assert rm["lower"] - 1e-6 <= dep["objective"] <= rm["upper"] + 1e-6
    assert rm["upper"] - rm["lower"] <= 5.0 + 1e-6
    assert rm["extras"]["eta_final"] is not None


def test_rm_asd_history_columns(knap_file, tmp_path):
    out = str(tmp_path / "rm.result.json")
    # cap exit (4) is fine here; the artifact format is what matters
    assert run("solve", "--in", knap_file, "--risk", "asd", "--rho", "0.5",
               "--method", "rm-asd", "--backend", "scipy", "--max-iters",
               "10", "--out", out) in (0, 4)
    header = open(str(tmp_path / "rm.history.csv")).readline().strip()
    assert header == ("iteration,eta,lower,upper,gap,s_plus,s_minus,"
                      "cuts_added,event")


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 1: the rm-asd lower bound overshoots "
                          "the upper on svc.7, and save_result refuses it")
def test_rm_asd_records_a_sandwich_on_svc(tmp_path):
    path = str(tmp_path / "svc.sp2.json")
    fileio.save_problem(path, problem=svc_problem(7))
    out = str(tmp_path / "svc.result.json")
    assert run("solve", "--in", path, "--method", "rm-asd", "--risk", "asd",
               "--rho", "0.5", "--max-iters", "12", "--out", out) in (0, 4)
    doc = fileio.load_result(out)
    assert doc["lower"] <= doc["upper"]


@pytest.mark.parametrize("extra, status, code", [
    ([], "converged", 0), (["--max-iters", "1"], "iteration_cap", 4)])
def test_solve_lshaped_writes_result_history_manifest(knap_file, tmp_path,
                                                      extra, status, code):
    out = str(tmp_path / "ls.result.json")
    assert run("solve", "--in", knap_file, "--risk", "mod-ee", "--rho", "0.4",
               "--eta", "-2200", "--method", "lshaped", "--out", out,
               *extra) == code
    doc = fileio.load_result(out)
    assert doc["status"] == status
    assert cli.load_manifest(out + cli.MANIFEST_SUFFIX)["exit_status"] == code
    header = open(str(tmp_path / "ls.history.csv")).readline().strip()
    assert header == "iteration,master,theta,recourse,gap,cuts"
    spec = RiskSpec(RiskMeasure.MODIFIED_EXPECTED_EXCESS, rho=0.4, eta=-2200.0)
    problem = fileio.load_problem(knap_file).problem
    assert doc["objective"] == evaluate_objective(problem, np.array(doc["x"]),
                                                  spec)
    assert doc["lower"] <= doc["objective"] == doc["upper"]


def test_dispatch_rules_exit_2(knap_file, tmp_path):
    out = str(tmp_path / "x.result.json")
    bad = [
        ["--risk", "neutral", "--rho", "0.5"],          # rho without risk
        ["--risk", "asd"],                               # missing rho
        ["--risk", "asd", "--rho", "1.5"],               # rho out of range
        ["--risk", "ee", "--rho", "0.5"],                # ee needs eta
        ["--risk", "asd", "--rho", "0.5", "--eta", "1"],  # eta not allowed
        ["--risk", "asd", "--rho", "0.5", "--method", "lshaped"],
        ["--risk", "mod-ee", "--rho", "0.5", "--eta", "0",
         "--method", "rm-asd"],
    ]
    for extra in bad:
        assert run("solve", "--in", knap_file, "--out", out, *extra) == 2, extra


@pytest.mark.parametrize("extra, message", [
    (["--risk", "ee", "--rho", "0.5", "--eta", "inf"], "--eta must be finite"),
    (["--risk", "ee", "--rho", "0.5", "--eta", "nan"], "--eta must be finite"),
    (["--risk", "asd", "--rho", "0.5", "--method", "rm-asd", "--xi", "nan"],
     "xi must be finite and positive"),
    (["--risk", "asd", "--rho", "0.5", "--method", "rm-asd", "--xi", "inf"],
     "xi must be finite and positive"),
    (["--risk", "asd", "--rho", "0.5", "--method", "rm-asd", "--epsilon",
      "nan"], "epsilon must be finite and positive"),
    (["--risk", "neutral", "--mip-gap", "-1"],
     "--mip-gap must be finite and non-negative"),
    (["--risk", "neutral", "--mip-gap", "nan"],
     "--mip-gap must be finite and non-negative"),
    (["--risk", "neutral", "--mip-gap", "inf"],
     "--mip-gap must be finite and non-negative"),
    (["--risk", "neutral", "--node-cap", "-5"], "--node-cap must be at least 1"),
    (["--risk", "neutral", "--node-cap", "0"], "--node-cap must be at least 1"),
    (["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200", "--method",
      "lshaped", "--max-iters", "0"], "--max-iters must be at least 1"),
    (["--risk", "asd", "--rho", "0.5", "--method", "rm-asd", "--max-iters",
      "-3"], "--max-iters must be at least 1"),
    (["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200", "--method",
      "lshaped", "--tol", "nan"], "--tol must be finite and positive"),
    (["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200", "--method",
      "lshaped", "--tol", "-1"], "--tol must be finite and positive"),
    (["--risk", "neutral", "--threads", "0"], "--threads must be at least 1"),
    (["--risk", "neutral", "--threads", "-2"], "--threads must be at least 1"),
], ids=["eta-inf", "eta-nan", "xi-nan", "xi-inf", "epsilon-nan", "mip-gap--1",
        "mip-gap-nan", "mip-gap-inf", "node-cap--5", "node-cap-0",
        "max-iters-0", "max-iters--3", "tol-nan", "tol--1", "threads-0",
        "threads--2"])
def test_non_finite_inputs_exit_2(knap_file, tmp_path, capsys, extra, message):
    capsys.readouterr()
    out = str(tmp_path / "x.result.json")
    assert run("solve", "--in", knap_file, "--out", out, *extra) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert not os.path.exists(out + cli.MANIFEST_SUFFIX)


# The method flags each --method reads; every other one is a usage error.
READS = {"dep": ("mip_gap", "node_cap", "collapse_mean_row"),
         "lshaped": ("tol", "max_iters", "multicut"),
         "rm-asd": ("max_iters", "epsilon", "xi")}
FLAG_ARGV = {"mip_gap": ["--mip-gap", "1e-4"], "node_cap": ["--node-cap", "10"],
             "collapse_mean_row": ["--collapse-mean-row"],
             "tol": ["--tol", "1e-4"], "max_iters": ["--max-iters", "7"],
             "multicut": ["--multicut"], "epsilon": ["--epsilon", "0.5"],
             "xi": ["--xi", "3"]}
RISK_ARGV = {"dep": ["--risk", "neutral"],
             "lshaped": ["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200"],
             "rm-asd": ["--risk", "asd", "--rho", "0.5"]}
UNREAD = [(method, flag) for method, reads in READS.items()
          for flag in FLAG_ARGV if flag not in reads]


@pytest.mark.parametrize("method, flag", UNREAD,
                         ids=[f"{m}-{f}" for m, f in UNREAD])
def test_unread_method_flag_exits_2(knap_file, tmp_path, capsys, method, flag):
    capsys.readouterr()
    out = str(tmp_path / "x.result.json")
    assert run("solve", "--in", knap_file, *RISK_ARGV[method], "--method",
               method, *FLAG_ARGV[flag], "--out", out) == 2
    option = FLAG_ARGV[flag][0]
    assert (f"error: {option} does not apply to --method {method}"
            in capsys.readouterr().err)
    for path in (out, out + cli.MANIFEST_SUFFIX, cli._history_path(out)):
        assert not os.path.exists(path)


@pytest.mark.parametrize("risk", [["neutral"], ["asd", "--rho", "0.5"]],
                         ids=["neutral", "asd"])
def test_ordering_benchmark_argv_exits_0(mssop_file, tmp_path, risk):
    # the argv of the benchmark's ordering pipeline, for both objectives
    out = str(tmp_path / "plan.result.json")
    assert run("solve", "--in", mssop_file, "--risk", *risk, "--method",
               "dep", "--collapse-mean-row", "--mip-gap", "1e-4", "--backend",
               "scipy", "--threads", "1", "--out", out) == 0
    config = cli.load_manifest(out + cli.MANIFEST_SUFFIX)["config"]
    assert config["collapse_mean_row"] is True and config["mip_gap"] == 1e-4
    assert [config[k] for k in ("tol", "max_iters", "multicut", "epsilon",
                                "xi")] == [None] * 5


@pytest.mark.parametrize("argv, message", [
    (["gen", "mssop", "--items", "2", "--periods", "2", "--scens", "0"],
     "items, periods and scenarios must each be at least 1"),
    (["gen", "mssop", "--items", "0", "--periods", "2", "--scens", "3"],
     "items, periods and scenarios must each be at least 1"),
    (["gen", "mssop", "--items", "2", "--periods", "0", "--scens", "3"],
     "items, periods and scenarios must each be at least 1"),
    (["gen", "mssop", "--items", "2", "--periods", "2", "--scens", "3",
      "--lumpy", "2"], "lumpy fraction must lie in [0, 1]"),
    (["gen", "mssop", "--items", "2", "--periods", "2", "--scens", "3",
      "--lumpy", "nan"], "lumpy fraction must lie in [0, 1]"),
    (["simulate", "--reps", "0"], "--reps must be at least 1"),
    (["simulate", "--reps", "-2"], "--reps must be at least 1"),
], ids=["scens-0", "items-0", "periods-0", "lumpy-2", "lumpy-nan", "reps-0",
        "reps--2"])
def test_bad_sizes_exit_2(mssop_file, tmp_path, capsys, argv, message):
    if argv[0] == "simulate":
        plan = str(tmp_path / "plan.result.json")
        assert run("solve", "--in", mssop_file, "--risk", "neutral",
                   "--mip-gap", "1e-4", "--out", plan) == 0
        argv = argv + ["--in", mssop_file, "--plan", plan]
    capsys.readouterr()
    out = str(tmp_path / "bad.out")
    assert run(*argv, "--out", out) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_input_exits_2(tmp_path):
    out = str(tmp_path / "x.result.json")
    assert run("solve", "--in", str(tmp_path / "nope.sp2.json"),
               "--risk", "neutral", "--out", out) == 2


def test_infeasible_model_exits_3(tmp_path):
    # first stage demands x1 >= 0.6 and x1 <= 0.4 at once
    problem = TwoStageProblem(
        first_stage_cost=np.array([1.0]),
        first_stage_matrix=np.array([[1.0], [-1.0]]),
        first_stage_rhs=np.array([0.6, -0.4]),
        scenarios=[Scenario(probability=1.0, cost=np.array([1.0]),
                            technology=np.zeros((1, 1)),
                            recourse=np.array([[1.0]]),
                            rhs=np.array([0.0]),
                            integrality=np.zeros(1, dtype=bool))],
        first_stage_integrality=np.ones(1, dtype=bool), name="infeas")
    path = str(tmp_path / "bad.sp2.json")
    fileio.save_problem(path, problem=problem, kind="generic-sp2")
    out = str(tmp_path / "bad.result.json")
    assert run("solve", "--in", path, "--risk", "neutral",
               "--backend", "scipy", "--out", out) == 3
    assert fileio.load_result(out)["status"] == "infeasible"


def rewrite(path, edit):
    """Apply edit to the JSON document at path and refresh its checksum.

    Plain json.dump, as fileio's strict writer refuses the NaN a broken
    file may carry."""
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    doc["checksum"] = fileio._checksum(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def two_scenario_problem(probability):
    # x + 2y = 1 in both scenarios: x = 1 is the one binary plan with
    # recourse, but the relaxed recourse also admits x = 0 with y = 1/2.
    def scenario(q):
        return Scenario(probability=probability, cost=np.array([q]),
                        technology=np.array([[1.0], [-1.0]]),
                        recourse=np.array([[2.0], [-2.0]]),
                        rhs=np.array([1.0, -1.0]))
    return TwoStageProblem(
        first_stage_cost=np.array([5.0]), first_stage_matrix=np.array([[0.0]]),
        first_stage_rhs=np.array([-1.0]), scenarios=[scenario(-1.0), scenario(-3.0)])


@pytest.mark.parametrize("probability, argv, code, message", [
    (0.5, ["--risk", "mod-ee", "--rho", "0.5", "--eta", "0", "--method",
           "lshaped"], 3, "error: scenario 0 has no feasible recourse at x=[0.0]"),
    (0.25, ["--risk", "neutral"], 2, "error: scenario probabilities sum to 0.5"),
    (float("nan"), ["--risk", "neutral"], 2,
     "error: scenario 0: probability nan is not finite"),
], ids=["lshaped-no-recourse", "probabilities-half", "probability-nan"])
def test_solve_faults_exit_by_type(tmp_path, capsys, probability, argv, code,
                                   message):
    # a problem off the contract cannot be built, so its file is edited
    path = str(tmp_path / "fault.sp2.json")
    fileio.save_problem(path, problem=two_scenario_problem(0.5))

    def set_probabilities(doc):
        for scenario in doc["payload"]["scenarios"]:
            scenario["probability"] = probability
    rewrite(path, set_probabilities)
    out = tmp_path / "fault.result.json"
    assert run("solve", "--in", path, *argv, "--out", str(out)) == code
    assert message in capsys.readouterr().err
    manifest = str(out) + cli.MANIFEST_SUFFIX
    if code == 2:
        assert not out.exists() and not os.path.exists(manifest)
    else:
        assert fileio.load_result(str(out))["status"] == "infeasible"
        assert cli.load_manifest(manifest)["exit_status"] == code


def test_unbounded_recourse_exits_3(tmp_path):
    path = str(tmp_path / "unbounded.sp2.json")
    fileio.save_problem(path, problem=unbounded_recourse_problem())
    out = str(tmp_path / "unbounded.result.json")
    assert run("solve", "--in", path, "--risk", "neutral", "--out", out) == 3
    assert fileio.load_result(out)["status"] == "unbounded"
    assert cli.load_manifest(out + cli.MANIFEST_SUFFIX)["exit_status"] == 3


def test_solve_out_without_result_suffix_keeps_the_whole_name(knap_file, tmp_path):
    out = str(tmp_path / "plan.json")
    assert run("solve", "--in", knap_file, "--risk", "neutral", "--out", out) == 0
    history = out + fileio.HISTORY_SUFFIX
    assert os.path.exists(history)
    assert cli.load_manifest(out + cli.MANIFEST_SUFFIX)["outputs"] == [out, history]


@pytest.mark.parametrize("risk, measure", [
    ("ee", RiskMeasure.EXPECTED_EXCESS),
    ("mod-ee", RiskMeasure.MODIFIED_EXPECTED_EXCESS)])
def test_solve_dep_on_excess_measures(knap_file, tmp_path, risk, measure):
    out = str(tmp_path / f"{risk}.result.json")
    assert run("solve", "--in", knap_file, "--risk", risk, "--rho", "0.4",
               "--eta", "-2000", "--method", "dep", "--out", out) == 0
    doc = fileio.load_result(out)
    problem = fileio.load_problem(knap_file).problem
    want = evaluate_objective(problem, doc["x"],
                              RiskSpec(measure, rho=0.4, eta=-2000.0))
    assert doc["objective"] == pytest.approx(want, rel=1e-6)


def test_problem_without_first_stage_rows_round_trips(tmp_path):
    knap = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=4, m1=3, m2=4))
    problem = dataclasses.replace(knap, first_stage_matrix=np.zeros((0, 5)),
                                  first_stage_rhs=np.zeros(0))
    path = str(tmp_path / "free.sp2.json")
    fileio.save_problem(path, problem=problem)
    loaded = fileio.load_problem(path).problem
    assert loaded.first_stage_matrix.shape == (0, 5)
    assert loaded.scenarios[0].technology.shape == (4, 5)
    for method, argv, spec in (
            ("dep", ["--risk", "neutral"], RiskSpec()),
            ("rm-asd", ["--risk", "asd", "--rho", "0.5", "--epsilon", "5"],
             RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=0.5)),
            # the cold-start master has no rows at all
            ("lshaped", ["--risk", "mod-ee", "--rho", "0.5", "--eta", "-1500"],
             RiskSpec(RiskMeasure.MODIFIED_EXPECTED_EXCESS, rho=0.5,
                      eta=-1500.0))):
        out = str(tmp_path / f"{method}.result.json")
        assert run("solve", "--in", path, *argv, "--method", method,
                   "--out", out) == 0
        doc = fileio.load_result(out)
        assert doc["objective"] == pytest.approx(
            evaluate_objective(problem, doc["x"], spec), rel=1e-9)


def test_node_cap_exits_4_with_partial_result(tmp_path):
    path = str(tmp_path / "cap.sp2.json")
    assert run("gen", "knapsack", "--n1", "10", "--n2", "20", "--scens", "10",
               "--seed", "0", "--m1", "5", "--m2", "5", "--out", path) == 0
    out = str(tmp_path / "cap.result.json")
    code = run("solve", "--in", path, "--risk", "neutral",
               "--backend", "scipy", "--node-cap", "1", "--out", out)
    assert code == 4
    doc = fileio.load_result(out)
    assert doc["status"] == "node_cap"
    assert doc["lower"] <= doc["objective"]  # bound survives the cap
    manifest = cli.load_manifest(out + cli.MANIFEST_SUFFIX)
    assert manifest["exit_status"] == 4


def test_simulate_and_report_pipeline(mssop_file, tmp_path, capsys):
    plan = str(tmp_path / "plan.result.json")
    assert run("solve", "--in", mssop_file, "--risk", "neutral",
               "--backend", "scipy", "--mip-gap", "1e-4",
               "--out", plan) == 0
    sim = str(tmp_path / "runs.sim.csv")
    assert run("simulate", "--in", mssop_file, "--plan", plan, "--reps", "3",
               "--seed", "2", "--out", sim) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("policy=neutral reps=3")
    agg = str(tmp_path / "agg.csv")
    plots = str(tmp_path / "plots")
    assert run("report", "--inputs", sim, "--out", agg,
               "--plots", plots) == 0
    header = open(agg).readline().strip()
    assert header == ("policy,replications,mean_lost_sales_events,"
                      "mean_lost_sales_quantity,mean_recourse_cost,"
                      "replenishment_cost,mean_total_cost")
    body = open(agg).read().splitlines()[1]
    assert body.startswith("neutral,3,")
    for stem in ("lost_sales_events", "lost_sales_quantity", "total_cost"):
        assert os.path.exists(os.path.join(plots, f"{stem}.png"))


def read_png(path):
    """Minimal decoder: signature, chunk CRCs, 8-bit RGB rows with filter 0."""
    data = open(path, "rb").read()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + body), tag
        chunks.append((tag, body))
        pos += 12 + length
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, color = struct.unpack(">IIBB", chunks[0][1][:10])
    assert (depth, color) == (8, 2)
    raw = zlib.decompress(b"".join(b for t, b in chunks if t == b"IDAT"))
    stride = 1 + 3 * width
    assert len(raw) == height * stride
    rows = [raw[y * stride:(y + 1) * stride] for y in range(height)]
    assert all(row[0] == 0 for row in rows)
    text = [b.decode("latin-1") for t, b in chunks if t == b"tEXt"]
    return width, height, [row[1:] for row in rows], text


def test_report_plots_are_bar_charts_and_replay(mssop_file, tmp_path):
    sims = []
    for label, risk in (("neutral", ["neutral"]), ("asd-0.9", ["asd", "--rho", "0.9"])):
        plan = str(tmp_path / f"{label}.result.json")
        assert run("solve", "--in", mssop_file, "--risk", *risk,
                   "--backend", "scipy", "--mip-gap", "1e-4", "--out", plan) == 0
        sims.append(str(tmp_path / f"{label}.sim.csv"))
        assert run("simulate", "--in", mssop_file, "--plan", plan, "--reps",
                   "4", "--seed", "2", "--label", label, "--out", sims[-1]) == 0
    zero = str(tmp_path / "idle.sim.csv")
    assert run("simulate", "--in", mssop_file, "--plan", plan, "--zero-demand",
               "--label", "idle", "--out", zero) == 0
    agg = str(tmp_path / "agg.csv")
    plots = str(tmp_path / "plots")
    assert run("report", "--inputs", *sims, zero, "--out", agg,
               "--plots", plots) == 0
    table = list(csv.DictReader(open(agg)))
    assert [r["policy"] for r in table] == ["neutral", "asd-0.9", "idle"]
    for stem, column in (("lost_sales_events", "mean_lost_sales_events"),
                         ("lost_sales_quantity", "mean_lost_sales_quantity"),
                         ("total_cost", "mean_total_cost")):
        values = [float(r[column]) for r in table]
        width, height, rows, text = read_png(os.path.join(plots, f"{stem}.png"))
        assert (width, height) == cli.CHART_SIZE
        heights = []
        for k in range(len(values)):
            x = 3 * int((k + 0.5) * width / len(values))
            heights.append(sum(row[x:x + 3] != b"\xff\xff\xff" for row in rows))
        top = max(values)
        want = [0.9 * height * v / top if top > 0 else 0.0 for v in values]
        assert heights == pytest.approx(want, abs=1.0), (stem, values)
        assert text and text[0].startswith(f"Title\0{stem}: ")
        for policy, v in zip(["neutral", "asd-0.9", "idle"], values):
            assert f"{policy}={v!r}" in text[0]
    replay = tmp_path / "replay"
    assert run("rerun", "--manifest", agg + cli.MANIFEST_SUFFIX,
               "--out-dir", str(replay)) == 0
    for stem in ("lost_sales_events", "lost_sales_quantity", "total_cost"):
        assert (open(replay / "plots" / f"{stem}.png", "rb").read()
                == open(os.path.join(plots, f"{stem}.png"), "rb").read())
    # the manifest lists the charts, not their directory, and each listed
    # output is a file the replay rewrites byte for byte
    doc = cli.load_manifest(agg + cli.MANIFEST_SUFFIX)
    assert doc["outputs"] == [agg] + [os.path.join(plots, f"{stem}.png") for stem in
                                      ("lost_sales_events", "lost_sales_quantity",
                                       "total_cost")]
    replayed = cli.load_manifest(str(replay / "agg.csv") + cli.MANIFEST_SUFFIX)
    for path, again in zip(doc["outputs"], replayed["outputs"]):
        assert os.path.isfile(path) and os.path.isfile(again)
        assert os.path.relpath(again, replay) == os.path.relpath(path, tmp_path)
        assert open(again, "rb").read() == open(path, "rb").read()
        assert doc["checksums"][path] == replayed["checksums"][again]


def test_simulate_rejects_wrong_instance(mssop_file, tmp_path):
    other = str(tmp_path / "other.sp2.json")
    assert run("gen", "mssop", "--items", "2", "--periods", "2", "--scens",
               "3", "--seed", "9", "--out", other) == 0
    plan = str(tmp_path / "plan.result.json")
    assert run("solve", "--in", mssop_file, "--risk", "neutral",
               "--backend", "scipy", "--mip-gap", "1e-4",
               "--out", plan) == 0
    sim = str(tmp_path / "bad.sim.csv")
    assert run("simulate", "--in", other, "--plan", plan,
               "--out", sim) == 2


def test_simulate_rejects_knapsack_kind(knap_file, tmp_path):
    plan = str(tmp_path / "plan.result.json")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--backend", "scipy", "--out", plan) == 0
    assert run("simulate", "--in", knap_file, "--plan", plan,
               "--out", str(tmp_path / "s.csv")) == 2


@pytest.mark.parametrize("x, message", [
    (None, "plan result carries no first-stage vector"),
    ([0.0, 1.0, 0.0], "plan length 3 does not match"),
], ids=["no-vector", "wrong-length"])
def test_simulate_rejects_a_broken_plan(mssop_file, tmp_path, capsys, x,
                                        message):
    plan = str(tmp_path / "plan.result.json")
    fileio.save_result(plan, method="dep", risk={"measure": "expectation"},
                       x=x, instance_checksum=fileio.load_problem(mssop_file).checksum)
    sim = tmp_path / "s.sim.csv"
    assert run("simulate", "--in", mssop_file, "--plan", plan,
               "--out", str(sim)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not sim.exists() and not os.path.exists(f"{sim}{cli.MANIFEST_SUFFIX}")


def test_simulate_labels_a_risk_averse_plan_by_measure_and_rho(mssop_file,
                                                               tmp_path):
    plan = str(tmp_path / "asd.result.json")
    assert run("solve", "--in", mssop_file, "--risk", "asd", "--rho", "0.5",
               "--mip-gap", "1e-4", "--out", plan) == 0
    sim = str(tmp_path / "asd.sim.csv")
    assert run("simulate", "--in", mssop_file, "--plan", plan, "--reps", "2",
               "--out", sim) == 0
    with open(sim, newline="") as fh:
        assert {row["policy"] for row in csv.DictReader(fh)} == {"asd-0.5"}
    assert cli.load_manifest(sim + cli.MANIFEST_SUFFIX)["config"]["label"] == "asd-0.5"


# payload edits that break an ordering problem file, by case
ORDERING_EDITS = {
    "no-demand": lambda payload: payload.pop("demand"),
    "demand-2d": lambda payload: payload.update(demand=payload["demand"][0]),
    "breakpoints-decrease": lambda payload: payload.update(
        breakpoint_weight=payload["breakpoint_weight"][::-1]),
    "freight-decreases": lambda payload: payload.update(
        freight_cost=payload["freight_cost"][::-1]),
}


# the rows after the header of a simulation table that report refuses
BAD_TABLE_ROWS = {
    "report-mean-rows-only": "neutral,mean,0.0,0.0,0.0,0.0",
    "report-non-numeric": "neutral,0,1,2.0,abc,4.0",
    "report-short-row": "A,0,1",
    "report-long-row": "A,1,3,4.0,30.0,500.0,999",
    "report-nan": "neutral,0,1,2.0,nan,4.0",
    "report-label-cost-clash": "A,0,1,2.0,10.0,100.0\nA,1,3,4.0,30.0,500.0",
}


def _broken_input(case, knap_file, mssop_file, tmp_path):
    """Write the broken input that case names; return the argv reading it."""
    solve = ["solve", "--risk", "neutral", "--out",
             str(tmp_path / "x.result.json"), "--in"]
    manifest = tmp_path / "m.manifest.json"
    rerun = ["rerun", "--out-dir", str(tmp_path / "replay"), "--manifest",
             str(manifest)]
    table = tmp_path / "t.sim.csv"
    report = ["report", "--out", str(tmp_path / "agg.csv"), "--inputs",
              str(table)]
    if case == "kind-lp":
        rewrite(knap_file, lambda doc: doc.update(kind="lp"))
        return solve + [knap_file]
    if case == "no-payload":
        rewrite(knap_file, lambda doc: doc.pop("payload"))
        return solve + [knap_file]
    if case == "technology-1d":
        def flatten(doc):
            scenario = doc["payload"]["scenarios"][0]
            scenario["technology"] = scenario["technology"][0]
        rewrite(knap_file, flatten)
        return solve + [knap_file]
    if case in ORDERING_EDITS:
        rewrite(mssop_file, lambda doc: ORDERING_EDITS[case](doc["payload"]))
        return solve + [mssop_file]
    if case.startswith("rerun"):
        manifest.write_text({
            "rerun-bad-json": "{",
            "rerun-no-config": json.dumps({"format": cli.MANIFEST_FORMAT,
                                           "subcommand": "solve"}),
            "rerun-of-rerun": json.dumps({"format": cli.MANIFEST_FORMAT,
                                          "subcommand": "rerun", "config": {}}),
        }[case])
        return rerun
    if case in BAD_TABLE_ROWS:
        table.write_text(",".join(fileio.SIMULATION_FIELDS) + "\n"
                         + BAD_TABLE_ROWS[case] + "\n")
    return report


@pytest.mark.parametrize("case, message", [
    ("kind-lp", "unknown kind 'lp'"),
    ("no-payload", "missing field 'payload'"),
    ("technology-1d", "technology matrix must be 2-dimensional, got shape (5,)"),
    ("no-demand", "instance payload missing field 'demand'"),
    ("demand-2d", "demand must be scenario x item x period"),
    ("breakpoints-decrease", "breakpoint weights must be nondecreasing"),
    ("freight-decreases", "freight costs must be nondecreasing"),
    ("rerun-bad-json", "unparseable JSON"),
    ("rerun-no-config", "missing field 'config'"),
    ("rerun-of-rerun", "cannot rerun subcommand 'rerun'"),
    ("report-missing-file", "No such file or directory"),
    ("report-mean-rows-only", "no simulation rows in the inputs"),
    ("report-non-numeric", "t.sim.csv: line 2: replication values must be finite numbers"),
    ("report-short-row", "t.sim.csv: line 2: replication values must be finite numbers"),
    ("report-nan", "t.sim.csv: line 2: replication values must be finite numbers"),
    ("report-long-row", "t.sim.csv: line 2: row has more cells than the header"),
    ("report-label-cost-clash",
     "policy 'A' carries two plan costs: 100.0 and 500.0"),
])
def test_broken_input_files_exit_2_and_write_nothing(
        knap_file, mssop_file, tmp_path, capsys, case, message):
    argv = _broken_input(case, knap_file, mssop_file, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(tmp_path.rglob("*")) == before


def test_report_rejects_foreign_csv(tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("a,b\n1,2\n")
    assert run("report", "--inputs", str(alien),
               "--out", str(tmp_path / "agg.csv")) == 2


def test_rerun_reproduces_bytes(knap_file, tmp_path):
    out = str(tmp_path / "a" / "asd.result.json")
    os.makedirs(tmp_path / "a")
    assert run("solve", "--in", knap_file, "--risk", "asd", "--rho", "0.5",
               "--backend", "scipy", "--out", out) == 0
    replay_dir = str(tmp_path / "b")
    assert run("rerun", "--manifest", out + cli.MANIFEST_SUFFIX,
               "--out-dir", replay_dir) == 0
    original = open(out, "rb").read()
    replayed = open(os.path.join(replay_dir, "asd.result.json"), "rb").read()
    assert replayed == original


def test_rerun_ignores_a_removed_config_key(knap_file, tmp_path):
    # Manifests written before --heuristic-lb was removed still carry it.
    out = str(tmp_path / "a" / "rm.result.json")
    os.makedirs(tmp_path / "a")
    code = run("solve", "--in", knap_file, "--risk", "asd", "--rho", "0.5",
               "--method", "rm-asd", "--max-iters", "4", "--backend",
               "scipy", "--out", out)
    manifest = out + cli.MANIFEST_SUFFIX
    doc = json.load(open(manifest))
    doc["config"]["heuristic_lb"] = False
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    replay_dir = str(tmp_path / "b")
    assert run("rerun", "--manifest", manifest, "--out-dir", replay_dir) == code
    replayed = open(os.path.join(replay_dir, "rm.result.json"), "rb").read()
    assert replayed == open(out, "rb").read()


def test_rerun_replays_a_manifest_recording_unread_flags(knap_file, tmp_path):
    # Older manifests record every method flag; dep never read these three.
    out = str(tmp_path / "a" / "n.result.json")
    os.makedirs(tmp_path / "a")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--out", out) == 0
    manifest = out + cli.MANIFEST_SUFFIX
    doc = json.load(open(manifest))
    doc["config"].update(tol=1e-6, max_iters=200, multicut=False)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    replay_dir = tmp_path / "b"
    assert run("rerun", "--manifest", manifest, "--out-dir",
               str(replay_dir)) == 0
    for name in ("n.result.json", "n.history.csv"):
        assert ((replay_dir / name).read_bytes()
                == (tmp_path / "a" / name).read_bytes())
    replayed = cli.load_manifest(str(replay_dir / "n.result.json")
                                 + cli.MANIFEST_SUFFIX)["config"]
    assert [replayed[k] for k in ("tol", "max_iters", "multicut")] == [None] * 3


def test_rerun_rejects_a_removed_backend(knap_file, tmp_path, capsys):
    # A manifest can name a backend that no longer exists.
    out = str(tmp_path / "a" / "n.result.json")
    os.makedirs(tmp_path / "a")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--backend", "scipy", "--out", out) == 0
    manifest = out + cli.MANIFEST_SUFFIX
    doc = json.load(open(manifest))
    doc["config"]["backend"] = "auto"
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run("rerun", "--manifest", manifest,
               "--out-dir", str(tmp_path / "b")) == 2
    assert "error: unknown backend 'auto'" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def _manifest_of(step, knap_file, mssop_file, tmp_path):
    """Manifest of a gen, solve, simulate or report run."""
    if step.startswith("gen"):
        return (knap_file if step == "gen-knapsack" else mssop_file) + cli.MANIFEST_SUFFIX
    plan, sim = str(tmp_path / "p.result.json"), str(tmp_path / "p.sim.csv")
    steps = {"solve": ("solve", "--in", mssop_file, "--risk", "neutral",
                       "--out", plan),
             "simulate": ("simulate", "--in", mssop_file, "--plan", plan,
                          "--reps", "2", "--out", sim),
             "report": ("report", "--inputs", sim, "--out",
                        str(tmp_path / "agg.csv"))}
    for name, argv in steps.items():
        assert run(*argv) == 0
        if name == step:
            return argv[-1] + cli.MANIFEST_SUFFIX


@pytest.mark.parametrize("step, edit, message", [
    ("gen-knapsack", lambda c: c.pop("seed"), "manifest config lacks seed"),
    ("gen-knapsack", lambda c: c.update(kind="cube"), "unknown kind 'cube'"),
    ("gen-mssop", lambda c: c.pop("lumpy"), "manifest config lacks lumpy"),
    ("solve", lambda c: c.update(backend="reference"),
     "unknown backend 'reference'"),
    ("simulate", lambda c: c.pop("reps"), "manifest config lacks reps"),
    ("report", lambda c: c.pop("inputs"), "manifest config lacks inputs"),
    ("solve", lambda c: c.update(mip_gap=-1.0),
     "--mip-gap must be finite and non-negative"),
    ("simulate", lambda c: c.update(reps=0), "--reps must be at least 1"),
], ids=["gen-no-seed", "gen-unknown-kind", "mssop-no-lumpy",
        "solve-removed-backend", "simulate-no-reps", "report-no-inputs",
        "solve-negative-gap", "simulate-no-replications"])
def test_rerun_rejects_a_broken_config_before_writing(
        knap_file, mssop_file, tmp_path, capsys, step, edit, message):
    manifest = _manifest_of(step, knap_file, mssop_file, tmp_path)
    doc = json.load(open(manifest))
    edit(doc["config"])
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    replay_dir = tmp_path / "replay"
    assert run("rerun", "--manifest", manifest,
               "--out-dir", str(replay_dir)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not replay_dir.exists()


@pytest.mark.parametrize("edit", [
    lambda config: config.update(method="benders"),
    lambda config: config.pop("node_cap"),
    lambda config: config.pop("risk"),
    lambda config: config.update(node_cap="5"),
    lambda config: config.update(threads=2.0),
    lambda config: config.update(rho="0.5"),
    lambda config: config.update(collapse_mean_row="true"),
], ids=["unknown-method", "no-node-cap", "no-risk", "node-cap-string",
        "threads-float", "rho-string", "collapse-mean-row-string"])
def test_rerun_rejects_a_broken_solve_config(knap_file, tmp_path, capsys, edit):
    out = str(tmp_path / "a" / "n.result.json")
    os.makedirs(tmp_path / "a")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--out", out) == 0
    manifest = out + cli.MANIFEST_SUFFIX
    doc = json.load(open(manifest))
    edit(doc["config"])
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    replay_dir = tmp_path / "b"
    assert run("rerun", "--manifest", manifest,
               "--out-dir", str(replay_dir)) == 2
    assert "error: " in capsys.readouterr().err
    assert not replay_dir.exists()


@pytest.mark.parametrize("method, extra", [
    ("dep", ["--risk", "asd", "--rho", "0.5"]),
    ("rm-asd", ["--risk", "asd", "--rho", "0.5", "--max-iters", "8"]),
    ("lshaped", ["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200"]),
], ids=["dep", "rm-asd", "lshaped"])
def test_two_threads_replay_one_thread(knap_file, tmp_path, method, extra):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}" / "run.result.json"
        out.parent.mkdir()
        code = run("solve", "--in", knap_file, "--method", method, *extra,
                   "--threads", threads, "--backend", "scipy",
                   "--out", str(out))
        history = out.parent / "run.history.csv"
        results.append((code, out.read_bytes(), history.read_bytes()))
    assert results[0][0] in (0, 4)
    assert results[1] == results[0]


def test_cli_solve_writes_nothing_to_stderr(knap_file, tmp_path):
    proc = python_on_src(
        "-m", "riskshed", "solve", "--in", knap_file,
        "--risk", "asd", "--rho", "0.5", "--method", "rm-asd",
        "--max-iters", "25", "--epsilon", "5.0", "--backend", "scipy",
        "--out", str(tmp_path / "rm.result.json"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_highs_console_output_stays_off_stderr():
    # HiGHS prints a line from this MIP on stdout, through file descriptor
    # 1, which redirect_stdout cannot catch; stderr must stay empty
    proc = python_on_src("-c", (
        "import numpy as np\n"
        "from riskshed.knapsack import KnapsackGenSpec, generate_knapsack\n"
        "from riskshed.model import evaluate_scenario_cost\n"
        "problem = generate_knapsack(KnapsackGenSpec(10, 20, 40, seed=1, m1=10, m2=20))\n"
        "evaluate_scenario_cost(problem, np.zeros(10), 14)\n"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_rerun_gen_reproduces_problem_bytes(knap_file, tmp_path):
    replay_dir = str(tmp_path / "c")
    assert run("rerun", "--manifest", knap_file + cli.MANIFEST_SUFFIX,
               "--out-dir", replay_dir) == 0
    replayed = os.path.join(replay_dir, os.path.basename(knap_file))
    assert open(replayed, "rb").read() == open(knap_file, "rb").read()


def test_rerun_rejects_non_manifest(tmp_path, knap_file):
    assert run("rerun", "--manifest", knap_file,
               "--out-dir", str(tmp_path / "d")) == 2


def test_manifest_is_json_with_config(knap_file):
    doc = json.load(open(knap_file + cli.MANIFEST_SUFFIX))
    assert doc["format"] == cli.MANIFEST_FORMAT
    assert doc["config"]["seed"] == 4
    assert doc["outputs"] == [knap_file]
    assert doc["wall_time"] >= 0.0


def test_manifest_config_keys(knap_file, mssop_file, tmp_path):
    # Each subcommand's config is read straight from its parser; pin the
    # keys so that a new or dropped argument shows here.
    plan = str(tmp_path / "plan.result.json")
    sim = str(tmp_path / "plan.sim.csv")
    agg = str(tmp_path / "agg.csv")
    assert run("solve", "--in", mssop_file, "--risk", "neutral",
               "--mip-gap", "1e-4", "--out", plan) == 0
    assert run("simulate", "--in", mssop_file, "--plan", plan, "--reps", "2",
               "--out", sim) == 0
    assert run("report", "--inputs", sim, "--out", agg) == 0
    expected = {
        knap_file: {"kind", "n1", "n2", "m1", "m2", "scens", "seed", "out"},
        mssop_file: {"kind", "items", "periods", "scens", "seed", "lumpy",
                     "out"},
        plan: {"in", "out", "history", "risk", "rho", "eta", "method",
               "backend", "threads", "mip_gap", "node_cap", "tol",
               "max_iters", "multicut", "collapse_mean_row", "epsilon", "xi"},
        sim: {"in", "plan", "reps", "seed", "zero_demand", "label", "out"},
        agg: {"inputs", "out", "plots"},
    }
    for path, keys in expected.items():
        doc = cli.load_manifest(path + cli.MANIFEST_SUFFIX)
        assert set(doc["config"]) == keys, path


def test_manifest_checksums_cover_inputs_and_outputs(knap_file, tmp_path):
    out = str(tmp_path / "neutral.result.json")
    assert run("solve", "--in", knap_file, "--risk", "neutral",
               "--backend", "scipy", "--out", out) == 0

    def sha(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    gen = cli.load_manifest(knap_file + cli.MANIFEST_SUFFIX)
    assert gen["checksums"] == {knap_file: sha(knap_file)}
    solve = cli.load_manifest(out + cli.MANIFEST_SUFFIX)
    files = solve["inputs"] + solve["outputs"]
    assert files == [knap_file, out, cli._history_path(out)]
    assert solve["checksums"] == {path: sha(path) for path in files}


def test_argparse_rejects_unknown_tokens(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("solve", "--in", "x", "--risk", "cvar", "--out", "y")
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        run("frobnicate")
