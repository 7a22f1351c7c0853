"""Versioned JSON/CSV artifacts for problems, results, and reports.

Files are canonical: keys sorted, one-space indent, floats at full
round-trip precision, and a sha256 checksum over the canonical body (all
fields except the checksum itself).  Serializing a parsed file reproduces
it byte for byte, which the rerun command relies on.

Problem files carry dense canonical data for generic and knapsack kinds
and the instance arrays for the ordering kind (its two-stage mapping is
rebuilt deterministically on load).  Generator metadata rides along so
instances can be regenerated from seed.  Result files record only
deterministic quantities; timing belongs in run manifests.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .model import Scenario, TwoStageProblem
from .mssop import ARRAY_FIELDS, MssopInstance, MssopModel, build_mssop_two_stage

FORMAT_VERSION = 1
PROBLEM_FORMAT = "riskshed-problem"
RESULT_FORMAT = "riskshed-result"
RESULT_SUFFIX = ".result.json"
HISTORY_SUFFIX = ".history.csv"
KINDS = ("generic-sp2", "knapsack", "mssop")
# Columns of a simulation table (write_simulation_csv; read by cli report).
SIMULATION_FIELDS = ["policy", "replication", "lost_sales_events",
                     "lost_sales_quantity", "recourse_cost",
                     "replenishment_cost"]


class ParseError(Exception):
    """File is structurally broken: bad JSON, missing fields, bad checksum,
    or a format version this code does not speak."""


def _tolist(a):
    return np.asarray(a).tolist()


def _canonical_bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _checksum(doc):
    body = {k: v for k, v in doc.items() if k != "checksum"}
    return "sha256:" + hashlib.sha256(_canonical_bytes(body)).hexdigest()


def _write_json(path, doc):
    """Write doc as strict JSON (a NaN or infinity raises), atomically."""
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump(doc, path):
    doc = dict(doc)
    doc["checksum"] = _checksum(doc)
    _write_json(path, doc)
    return doc["checksum"]


def _load(path, expected_format):
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: unparseable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for fieldname in ("format", "version", "checksum"):
        if fieldname not in doc:
            raise ParseError(f"{path}: missing field '{fieldname}'")
    if doc["format"] != expected_format:
        raise ParseError(f"{path}: format is '{doc['format']}', "
                         f"expected '{expected_format}'")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"{path}: version {doc['version']} "
                         f"unsupported (this build reads {FORMAT_VERSION})")
    if doc["checksum"] != _checksum(doc):
        raise ParseError(f"{path}: checksum mismatch, file corrupted")
    return doc


def _problem_payload(problem: TwoStageProblem):
    return {
        "name": problem.name,
        "first_stage_cost": _tolist(problem.first_stage_cost),
        "first_stage_matrix": _tolist(problem.first_stage_matrix),
        "first_stage_rhs": _tolist(problem.first_stage_rhs),
        "first_stage_integrality": _tolist(problem.first_stage_integrality),
        "scenarios": [{
            "probability": float(s.probability),
            "cost": _tolist(s.cost),
            "technology": _tolist(s.technology),
            "recourse": _tolist(s.recourse),
            "rhs": _tolist(s.rhs),
            "integrality": _tolist(s.integrality),
        } for s in problem.scenarios],
    }


def _matrix(rows, ncols):
    """rows as a float matrix; JSON writes one with no rows as []."""
    return np.array(rows, float) if rows else np.zeros((0, ncols))


def _problem_from_payload(payload):
    try:
        n1 = len(payload["first_stage_cost"])
        scenarios = [Scenario(
            probability=s["probability"], cost=np.array(s["cost"], float),
            technology=_matrix(s["technology"], n1),
            recourse=_matrix(s["recourse"], len(s["cost"])),
            rhs=np.array(s["rhs"], float),
            integrality=np.array(s["integrality"], bool),
        ) for s in payload["scenarios"]]
        return TwoStageProblem(
            first_stage_cost=np.array(payload["first_stage_cost"], float),
            first_stage_matrix=_matrix(payload["first_stage_matrix"], n1),
            first_stage_rhs=np.array(payload["first_stage_rhs"], float),
            scenarios=scenarios,
            first_stage_integrality=np.array(payload["first_stage_integrality"],
                                             bool),
            name=payload.get("name", ""))
    except KeyError as exc:
        raise ParseError(f"problem payload missing field {exc}") from exc


def _instance_payload(instance: MssopInstance):
    out = {f: _tolist(getattr(instance, f)) for f in ARRAY_FIELDS}
    out["name"] = instance.name
    return out


def _instance_from_payload(payload):
    try:
        kwargs = {f: np.array(payload[f], float) for f in ARRAY_FIELDS}
    except KeyError as exc:
        raise ParseError(f"instance payload missing field {exc}") from exc
    return MssopInstance(name=payload.get("name", ""), **kwargs)


@dataclass
class ProblemFile:
    kind: str
    problem: TwoStageProblem
    model: MssopModel | None = None     # the ordering kind's model
    generator: dict | None = None
    rng: dict | None = None
    checksum: str = ""

    @property
    def name(self):
        return self.problem.name


def save_problem(path, problem=None, kind="generic-sp2", instance=None,
                 generator=None, rng=None):
    """Write a problem file; pass instance= for the ordering kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind '{kind}'")
    if kind == "mssop":
        if instance is None:
            raise ValueError("mssop kind needs instance=")
        payload = _instance_payload(instance)
    else:
        if problem is None:
            raise ValueError("need problem=")
        payload = _problem_payload(problem)
    doc = {"format": PROBLEM_FORMAT, "version": FORMAT_VERSION, "kind": kind,
           "payload": payload}
    if generator is not None:
        doc["generator"] = generator
    if rng is not None:
        doc["rng"] = rng
    return _dump(doc, path)


def load_problem(path) -> ProblemFile:
    doc = _load(path, PROBLEM_FORMAT)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown kind '{kind}'")
    if "payload" not in doc:
        raise ParseError(f"{path}: missing field 'payload'")
    if kind == "mssop":
        model = build_mssop_two_stage(_instance_from_payload(doc["payload"]))
        problem = model.problem
    else:
        model = None
        problem = _problem_from_payload(doc["payload"])
    return ProblemFile(kind=kind, problem=problem, model=model,
                       generator=doc.get("generator"), rng=doc.get("rng"),
                       checksum=doc["checksum"])


def save_result(path, method, risk, objective=None, lower=None, upper=None,
                gap_percent=None, x=None, status="optimal", counters=None,
                backend="", instance_name="", instance_checksum="",
                extras=None):
    """Write a result file; only deterministic quantities belong here."""
    if lower is not None and upper is not None and lower > upper + 1e-9:
        raise ValueError("refusing to record lower > upper")
    doc = {
        "format": RESULT_FORMAT, "version": FORMAT_VERSION,
        "method": method, "risk": risk, "status": status,
        "backend": backend,
        "instance": {"name": instance_name, "checksum": instance_checksum},
        "objective": objective, "lower": lower, "upper": upper,
        "gap_percent": gap_percent,
        "x": None if x is None else _tolist(np.asarray(x, float)),
        "counters": counters or {},
    }
    if extras:
        doc["extras"] = extras
    return _dump(doc, path)


def load_result(path) -> dict:
    return _load(path, RESULT_FORMAT)


def write_history_csv(path, rows, fields):
    with open(f"{path}.tmp.{os.getpid()}", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    os.replace(f"{path}.tmp.{os.getpid()}", path)


def write_simulation_csv(path, reports):
    """One row per (policy, replication), plus a "mean" row per policy."""
    rows = []
    for rep in reports:
        for r in range(rep.replications):
            rows.append({
                "policy": rep.label, "replication": r,
                "lost_sales_events": int(rep.lost_sales_events[r]),
                "lost_sales_quantity": repr(float(rep.lost_sales_quantity[r])),
                "recourse_cost": repr(float(rep.recourse_cost[r])),
                "replenishment_cost": repr(float(rep.replenishment_cost)),
            })
        rows.append({
            "policy": rep.label, "replication": "mean",
            "lost_sales_events": repr(float(rep.mean_events)),
            "lost_sales_quantity": repr(float(rep.mean_quantity)),
            "recourse_cost": repr(float(rep.mean_recourse_cost)),
            "replenishment_cost": repr(float(rep.replenishment_cost)),
        })
    write_history_csv(path, rows, SIMULATION_FIELDS)
