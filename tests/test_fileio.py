"""Artifact files: canonical bytes, checksums, version gating."""
import csv
import json

import numpy as np
import pytest

from riskshed import fileio
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.model import evaluate_objective, RiskSpec
from riskshed.mssop import (ReplenishmentPlan, generate_mssop_instance,
                            simulate_policy)


def test_problem_roundtrip_bytes(tmp_path):
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=8, m1=3, m2=4))
    path = tmp_path / "k.sp2.json"
    ck = fileio.save_problem(path, problem=problem, kind="knapsack",
                             generator={"family": "knapsack", "seed": 8},
                             rng={"identity": "philox", "seed": 8})
    first = path.read_bytes()
    pf = fileio.load_problem(path)
    assert pf.checksum == ck
    assert pf.kind == "knapsack"
    assert pf.generator["seed"] == 8
    # serializing the parsed problem reproduces the file byte for byte
    fileio.save_problem(path, problem=pf.problem, kind="knapsack",
                        generator=pf.generator, rng=pf.rng)
    assert path.read_bytes() == first
    assert np.array_equal(pf.problem.first_stage_matrix,
                          problem.first_stage_matrix)
    for a, b in zip(pf.problem.scenarios, problem.scenarios):
        assert np.array_equal(a.rhs, b.rhs)
        assert a.integrality.dtype == bool


def test_problem_roundtrip_preserves_objective(tmp_path):
    problem = generate_knapsack(KnapsackGenSpec(5, 6, 3, seed=4, m1=3, m2=4))
    path = tmp_path / "k.sp2.json"
    fileio.save_problem(path, problem=problem, kind="knapsack")
    loaded = fileio.load_problem(path).problem
    x = np.zeros(5)
    x[0] = 1.0
    spec = RiskSpec("absolute-semideviation", rho=0.4)
    assert evaluate_objective(loaded, x, spec) == pytest.approx(
        evaluate_objective(problem, x, spec), abs=1e-12)


def test_mssop_kind_rebuilds_two_stage(tmp_path):
    inst = generate_mssop_instance(2, 3, 4, seed=6)
    path = tmp_path / "m.sp2.json"
    fileio.save_problem(path, kind="mssop", instance=inst)
    pf = fileio.load_problem(path)
    assert pf.problem is pf.model.problem
    assert np.array_equal(pf.model.instance.demand, inst.demand)
    # the canonical two-stage mapping comes back deterministically
    from riskshed.mssop import build_mssop_two_stage
    direct = build_mssop_two_stage(inst).problem
    assert np.array_equal(pf.problem.first_stage_matrix,
                          direct.first_stage_matrix)
    assert np.array_equal(pf.problem.scenarios[2].rhs,
                          direct.scenarios[2].rhs)
    with pytest.raises(ValueError):
        fileio.save_problem(path, kind="mssop")  # instance missing
    with pytest.raises(ValueError):
        fileio.save_problem(path, problem=direct, kind="no-such-kind")


def test_checksum_detects_corruption(tmp_path):
    problem = generate_knapsack(KnapsackGenSpec(4, 5, 2, seed=1, m1=2, m2=3))
    path = tmp_path / "k.sp2.json"
    fileio.save_problem(path, problem=problem, kind="knapsack")
    doc = json.loads(path.read_text())
    doc["payload"]["first_stage_rhs"][0] += 1.0
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    with pytest.raises(fileio.ParseError, match="checksum"):
        fileio.load_problem(path)


def test_version_gate(tmp_path):
    problem = generate_knapsack(KnapsackGenSpec(4, 5, 2, seed=1, m1=2, m2=3))
    path = tmp_path / "k.sp2.json"
    fileio.save_problem(path, problem=problem, kind="knapsack")
    doc = json.loads(path.read_text())
    doc["version"] = 99
    doc["checksum"] = fileio._checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    with pytest.raises(fileio.ParseError, match="version 99 unsupported "
                       r"\(this build reads 1\)"):
        fileio.load_problem(path)


def test_structural_errors(tmp_path):
    path = tmp_path / "bad.sp2.json"
    path.write_text("{ truncated")
    with pytest.raises(fileio.ParseError, match="unparseable"):
        fileio.load_problem(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(fileio.ParseError, match="top level"):
        fileio.load_problem(path)
    path.write_text(json.dumps({"format": fileio.PROBLEM_FORMAT}) + "\n")
    with pytest.raises(fileio.ParseError, match="missing field"):
        fileio.load_problem(path)
    doc = {"format": "riskshed-result", "version": 1}
    doc["checksum"] = fileio._checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    with pytest.raises(fileio.ParseError, match="format"):
        fileio.load_problem(path)


def test_missing_payload_fields(tmp_path):
    problem = generate_knapsack(KnapsackGenSpec(4, 5, 2, seed=1, m1=2, m2=3))
    path = tmp_path / "k.sp2.json"
    fileio.save_problem(path, problem=problem, kind="knapsack")
    doc = json.loads(path.read_text())
    del doc["payload"]["scenarios"][0]["recourse"]
    doc["checksum"] = fileio._checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    with pytest.raises(fileio.ParseError, match="missing field"):
        fileio.load_problem(path)


def test_result_roundtrip_and_bound_order(tmp_path):
    path = tmp_path / "r.result.json"
    ck = fileio.save_result(
        path, method="rm-asd",
        risk={"measure": "absolute-semideviation", "rho": 0.5, "eta": None},
        objective=-12.5, lower=-13.0, upper=-12.5, gap_percent=3.85,
        x=[1.0, 0.0], status="optimal", counters={"lp_solves": 7},
        backend="scipy", instance_name="K.4.5.2", instance_checksum="sha256:x",
        extras={"iterations": 3})
    doc = fileio.load_result(path)
    assert doc["checksum"] == ck
    assert doc["lower"] == -13.0
    assert doc["extras"]["iterations"] == 3
    assert doc["x"] == [1.0, 0.0]
    with pytest.raises(ValueError, match="lower > upper"):
        fileio.save_result(path, method="dep", risk={}, lower=5.0, upper=4.0)


def test_history_csv_field_filter(tmp_path):
    path = tmp_path / "h.history.csv"
    fileio.write_history_csv(
        path, [{"iteration": 0, "gap": 1.5, "extra": "dropped"}],
        ["iteration", "gap"])
    text = path.read_text()
    assert text.splitlines()[0] == "iteration,gap"
    assert "dropped" not in text


def test_simulation_csv_mean_rows(tmp_path):
    inst = generate_mssop_instance(2, 2, 2, seed=3)
    null = ReplenishmentPlan(orders=np.zeros((2, 2)), setups=np.zeros((2, 2)),
                             segment_weights=np.zeros((7, 2)))
    rep = simulate_policy(inst, null, replications=3, seed=5, label="null")
    path = tmp_path / "s.sim.csv"
    fileio.write_simulation_csv(path, [rep, rep])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * (3 + 1)
    means = [r for r in rows if r["replication"] == "mean"]
    assert len(means) == 2
    assert float(means[0]["lost_sales_quantity"]) == pytest.approx(
        rep.mean_quantity)
    per_rep = [r for r in rows if r["replication"] != "mean"][:3]
    got = np.array([float(r["recourse_cost"]) for r in per_rep])
    assert np.array_equal(got, rep.recourse_cost)
