"""Operator surface: dispatch, exit codes, manifests, replays."""
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from riskshed import cli, fileio, util
from riskshed.knapsack import KnapsackGenSpec, audit_dimensions, generate_knapsack
from riskshed.model import RiskMeasure, RiskSpec, Scenario, TwoStageProblem
from riskshed.oracle import brute_force_optimum


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
], ids=["eta-inf", "eta-nan", "xi-nan", "xi-inf", "epsilon-nan"])
def test_non_finite_inputs_exit_2(knap_file, tmp_path, capsys, extra, message):
    capsys.readouterr()
    out = str(tmp_path / "x.result.json")
    assert run("solve", "--in", knap_file, "--out", out, *extra) == 2
    assert f"error: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["dep", "rm-asd"])
def test_two_threads_replay_one_thread(knap_file, tmp_path, method):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}" / "asd.result.json"
        out.parent.mkdir()
        code = run("solve", "--in", knap_file, "--risk", "asd", "--rho",
                   "0.5", "--method", method, "--max-iters", "8",
                   "--threads", threads, "--backend", "scipy",
                   "--out", str(out))
        history = out.parent / "asd.history.csv"
        results.append((code, out.read_bytes(), history.read_bytes()))
    assert results[0][0] in (0, 4)
    assert results[1] == results[0]


def test_cli_solve_writes_nothing_to_stderr(knap_file, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "riskshed", "solve", "--in", knap_file,
         "--risk", "asd", "--rho", "0.5", "--method", "rm-asd",
         "--max-iters", "25", "--epsilon", "5.0", "--backend", "scipy",
         "--out", str(tmp_path / "rm.result.json")],
        capture_output=True, text=True, env=env)
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
