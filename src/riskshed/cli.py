"""Command-line operator surface: generate, solve, simulate, report, rerun.

Every subcommand resolves its arguments into a plain config dict, hands it
to a runner, and writes a run manifest next to the primary output.  The
manifest stores the fully resolved config, so ``rerun`` can replay any
run with its outputs redirected into a fresh directory; result files from
a replay are byte-identical to the originals.

``METHODS`` states, per ``solve --method``, the method flags its runner
reads and their defaults; a method flag the chosen method does not read is
a usage error, and the manifest records it as null.

Exit codes: 0 success; 2 usage or configuration error, or problem or
generator data that breaks the model contract (no manifest is written);
3 a solve the method relies on came back infeasible or unbounded; 4 an
iteration or node cap was reached (partial result still written).  A
solve fault is a ``SolveFailed`` whose status picks the code through
``STATUS_EXIT``.
"""
from __future__ import annotations

import argparse
import binascii
import collections
import csv
import hashlib
import json
import math
import os
import struct
import sys
import time
import zlib

import numpy as np

from . import fileio, util
from .asd_bounds import AsdBoundsConfig, rm_asd_solve
from .backend import ScipyBackend, SolveFailed
from .dep import (build_dep_absolute_semideviation, build_dep_expectation,
                  build_dep_expected_excess, build_dep_modified_expected_excess)
from .knapsack import (RNG_IDENTITY, KnapsackGenSpec, audit_dimensions,
                       generate_knapsack)
from .lshaped import lshaped_solve
from .model import RiskMeasure, RiskSpec, ValidationError, evaluate_objective
from .mssop import build_mssop_two_stage, generate_mssop_instance, simulate_policy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CAP = 4

MANIFEST_FORMAT = "riskshed-manifest"
MANIFEST_SUFFIX = ".manifest.json"

# CLI risk tokens -> canonical measure names.
RISK_TOKENS = {
    "neutral": "expectation",
    "ee": "expected-excess",
    "mod-ee": "modified-expected-excess",
    "asd": "absolute-semideviation",
}

# Config keys holding output paths, per subcommand; rerun redirects these.
# "plots" names a directory; the manifest lists the charts written into it.
OUTPUT_KEYS = {
    "gen": ("out",),
    "solve": ("out", "history"),
    "simulate": ("out",),
    "report": ("out", "plots"),
}
INPUT_KEYS = {
    "gen": (),
    "solve": ("in",),
    "simulate": ("in", "plan"),
    "report": ("inputs",),
}
# solve statuses -> exit code; any other status is a cap (EXIT_CAP).
STATUS_EXIT = {"optimal": EXIT_OK, "converged": EXIT_OK,
               "infeasible": EXIT_INFEASIBLE, "unbounded": EXIT_INFEASIBLE}

CHART_SIZE = (320, 200)             # report --plots canvas, pixels
BAR_RGB = bytes((70, 130, 180))     # steel blue
# report --plots: one <stem>.png per series, drawn from the summary column.
PLOT_SERIES = {
    "lost_sales_events": "mean_lost_sales_events",
    "lost_sales_quantity": "mean_lost_sales_quantity",
    "total_cost": "mean_total_cost",
}


class UsageError(Exception):
    """Configuration problem detected after argument parsing."""


def _print_bounds(lower, upper, gap):
    print(f"{'LB':>14} {'UB':>14} {'Gap(%)':>10}")
    lb = "-" if lower is None else f"{lower:.4f}"
    ub = "-" if upper is None else f"{upper:.4f}"
    gp = "-" if gap is None else f"{gap:.2f}"
    print(f"{lb:>14} {ub:>14} {gp:>10}")


def _history_path(out):
    if out.endswith(fileio.RESULT_SUFFIX):
        return out[: -len(fileio.RESULT_SUFFIX)] + fileio.HISTORY_SUFFIX
    return out + fileio.HISTORY_SUFFIX


def _plot_files(out_dir):
    return [os.path.join(out_dir, f"{stem}.png") for stem in PLOT_SERIES]


def _files(cfg, keys):
    """Files that cfg names under keys; ``plots`` stands for its charts."""
    files = []
    for key in keys:
        value = cfg.get(key)
        if key == "plots" and value:
            files += _plot_files(value)
        elif value:
            files += value if isinstance(value, list) else [value]
    return files


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(path, subcommand, config, inputs, outputs, wall_time,
                    exit_status):
    """Run record; checksums cover the listed files that exist on disk."""
    files = list(inputs) + list(outputs)
    doc = {
        "format": MANIFEST_FORMAT, "version": fileio.FORMAT_VERSION,
        "subcommand": subcommand, "config": config,
        "inputs": list(inputs), "outputs": list(outputs),
        "checksums": {f: _sha256(f) for f in files if os.path.isfile(f)},
        "wall_time": wall_time, "exit_status": exit_status,
    }
    fileio._write_json(path, doc)


def load_manifest(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise fileio.ParseError(f"{path}: unparseable JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise fileio.ParseError(f"{path}: not a run manifest")
    for fieldname in ("subcommand", "config"):
        if fieldname not in doc:
            raise fileio.ParseError(f"{path}: missing field '{fieldname}'")
    return doc


# ---------------------------------------------------------------------------
# gen


def run_gen(cfg):
    if cfg["kind"] == "knapsack":
        spec = KnapsackGenSpec(n1=cfg["n1"], n2=cfg["n2"],
                               num_scenarios=cfg["scens"],
                               seed=cfg["seed"], m1=cfg["m1"], m2=cfg["m2"])
        problem = generate_knapsack(spec)
        generator = {"family": "knapsack", "n1": spec.n1, "n2": spec.n2,
                     "num_scenarios": spec.num_scenarios, "m1": spec.m1,
                     "m2": spec.m2, "seed": spec.seed}
        fileio.save_problem(cfg["out"], problem=problem, kind="knapsack",
                            generator=generator,
                            rng={"identity": RNG_IDENTITY, "seed": spec.seed})
        audited = problem
    else:
        instance = generate_mssop_instance(
            cfg["items"], cfg["periods"], cfg["scens"],
            lumpy_fraction=cfg["lumpy"], seed=cfg["seed"])
        generator = {"family": "mssop", "num_items": cfg["items"],
                     "num_periods": cfg["periods"],
                     "num_scenarios": cfg["scens"],
                     "lumpy_fraction": cfg["lumpy"], "seed": cfg["seed"]}
        fileio.save_problem(cfg["out"], kind="mssop", instance=instance,
                            generator=generator,
                            rng={"identity": RNG_IDENTITY, "seed": cfg["seed"]})
        audited = build_mssop_two_stage(instance).problem
    nvars, ncons, nnz = audit_dimensions(audited)
    print(f"vars={nvars} constr={ncons} nnz={nnz}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _validate_solve(cfg):
    risk, method = cfg["risk"], cfg["method"]
    rho, eta = cfg["rho"], cfg["eta"]
    if risk == "neutral":
        if rho is not None:
            raise UsageError("--rho applies to risk-averse measures only")
    elif rho is None:
        raise UsageError(f"--risk {risk} needs --rho")
    elif not 0.0 <= rho <= 1.0:
        raise UsageError("--rho must lie in [0, 1]")
    if risk in ("ee", "mod-ee"):
        if eta is None:
            raise UsageError(f"--risk {risk} needs an excess target --eta")
        if not math.isfinite(eta):
            raise UsageError("--eta must be finite")
    elif eta is not None:
        raise UsageError("--eta applies to the excess measures only")
    if cfg["threads"] < 1:
        raise UsageError("--threads must be at least 1")
    risks, flags = METHODS[method].risks, METHODS[method].flags
    if risk not in risks:
        raise UsageError(f"--method {method} supports --risk "
                         f"{' or '.join(risks)} only")
    for name in METHOD_FLAGS:
        if cfg[name] is not None and name not in flags:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to "
                             f"--method {method}")
    for name, default in flags.items():
        if cfg[name] is None:
            cfg[name] = default
    if "mip_gap" in flags and not 0.0 <= cfg["mip_gap"] < math.inf:
        raise UsageError("--mip-gap must be finite and non-negative")
    if "node_cap" in flags and cfg["node_cap"] < 1:
        raise UsageError("--node-cap must be at least 1")
    if "tol" in flags and not 0.0 < cfg["tol"] < math.inf:
        raise UsageError("--tol must be finite and positive")
    if "max_iters" in flags and cfg["max_iters"] < 1:
        raise UsageError("--max-iters must be at least 1")


def _solve_dep(cfg, problem, backend):
    risk, rho, eta = cfg["risk"], cfg["rho"], cfg["eta"]
    if risk == "neutral":
        art = build_dep_expectation(problem)
    elif risk == "ee":
        art = build_dep_expected_excess(problem, rho, eta)
    elif risk == "mod-ee":
        art = build_dep_modified_expected_excess(problem, rho, eta)
    else:
        art = build_dep_absolute_semideviation(
            problem, rho, collapse_mean_row=cfg["collapse_mean_row"])
    sol = backend.solve_mip(art.program, gap_tol=cfg["mip_gap"],
                            node_cap=cfg["node_cap"])
    fields = dict(status=sol.status, lower=sol.bound, upper=sol.objective,
                  x=None if sol.x is None else art.first_stage_values(sol.x))
    history = []
    if sol.status == "optimal":
        history.append({"iteration": 0, "lower": sol.bound,
                        "upper": sol.objective,
                        "gap": sol.objective - sol.bound, "event": "dep"})
    return fields, history


def _solve_lshaped(cfg, problem, backend):
    res = lshaped_solve(problem, cfg["rho"], cfg["eta"], backend=backend,
                        tol=cfg["tol"], max_iters=cfg["max_iters"],
                        multicut=cfg["multicut"], threads=cfg["threads"])
    spec = RiskSpec(RiskMeasure.MODIFIED_EXPECTED_EXCESS,
                    rho=cfg["rho"], eta=cfg["eta"])
    upper = evaluate_objective(problem, res.x, spec, backend=backend,
                               threads=cfg["threads"])
    fields = dict(status=res.status, lower=min(res.master_objective, upper),
                  upper=upper, x=res.x,
                  extras={"iterations": res.iterations, "cuts": len(res.cuts)})
    return fields, res.history


def _solve_rm_asd(cfg, problem, backend):
    config = AsdBoundsConfig(
        rho=cfg["rho"], epsilon=cfg["epsilon"], xi=cfg["xi"],
        max_iters=cfg["max_iters"], backend=backend, threads=cfg["threads"])
    state = rm_asd_solve(problem, config)
    fields = dict(
        status=state.status, lower=state.lower, upper=state.upper,
        x=state.x_best,
        extras={"eta_final": state.eta,
                "q_expectation": state.q_expectation,
                "iterations": len(state.history) - 1,
                "cuts": len(state.pool)})
    return fields, state.history


# --method -> its runner, the --risk tokens it accepts, the method flags
# the runner reads with their defaults, and its history CSV columns.  A
# runner returns (fields, history); fields hold the status, the lower and
# upper bounds, the first-stage x and optional extras, and upper is the
# objective of x.
Method = collections.namedtuple("Method", "runner risks flags history")
METHODS = {
    "dep": Method(_solve_dep, tuple(RISK_TOKENS),
                  {"mip_gap": 1e-6, "node_cap": 200_000,
                   "collapse_mean_row": False},
                  ("iteration", "lower", "upper", "gap", "event")),
    "lshaped": Method(_solve_lshaped, ("mod-ee",),
                      {"tol": 1e-6, "max_iters": 200, "multicut": False},
                      ("iteration", "master", "theta", "recourse", "gap",
                       "cuts")),
    "rm-asd": Method(_solve_rm_asd, ("asd",),
                     {"max_iters": 50, "epsilon": None, "xi": None},
                     ("iteration", "eta", "lower", "upper", "gap", "s_plus",
                      "s_minus", "cuts_added", "event")),
}
METHOD_FLAGS = tuple(dict.fromkeys(f for m in METHODS.values() for f in m.flags))


def run_solve(cfg):
    _validate_solve(cfg)
    method = METHODS[cfg["method"]]
    pf = fileio.load_problem(cfg["in"])
    backend = ScipyBackend()
    cfg["history"] = _history_path(cfg["out"])
    try:
        fields, history = method.runner(cfg, pf.problem, backend)
    except SolveFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        fields, history = dict(status=exc.status), []

    lower, upper = fields.get("lower"), fields.get("upper")
    gap = None
    if lower is not None and upper is not None:
        gap = util.gap_percent(lower, upper)
        gap = gap if math.isfinite(gap) else None
    risk_doc = {"measure": RISK_TOKENS[cfg["risk"]], "rho": cfg["rho"],
                "eta": cfg["eta"]}
    fileio.save_result(cfg["out"], method=cfg["method"], risk=risk_doc,
                       backend=cfg["backend"], instance_name=pf.name,
                       instance_checksum=pf.checksum,
                       counters=backend.stats.as_dict(), objective=upper,
                       gap_percent=gap, **fields)
    fileio.write_history_csv(cfg["history"], history, method.history)
    _print_bounds(lower, upper, gap)
    return STATUS_EXIT.get(fields["status"], EXIT_CAP)


# ---------------------------------------------------------------------------
# simulate


def run_simulate(cfg):
    if cfg["reps"] < 1:
        raise UsageError("--reps must be at least 1")
    pf = fileio.load_problem(cfg["in"])
    if pf.kind != "mssop":
        raise UsageError(f"simulate needs an ordering instance, got kind "
                         f"'{pf.kind}'")
    plan_doc = fileio.load_result(cfg["plan"])
    recorded = (plan_doc.get("instance") or {}).get("checksum", "")
    if recorded and pf.checksum and recorded != pf.checksum:
        raise UsageError("plan was solved on a different instance "
                         "(checksum mismatch)")
    x = plan_doc.get("x")
    if x is None:
        raise UsageError("plan result carries no first-stage vector")
    model = pf.model
    x = np.asarray(x, dtype=float)
    if x.size != model.problem.n1:
        raise UsageError(f"plan length {x.size} does not match instance "
                         f"first stage ({model.problem.n1} variables)")
    if cfg["label"] is None:
        risk = plan_doc.get("risk") or {}
        measure = risk.get("measure", "expectation")
        token = {v: k for k, v in RISK_TOKENS.items()}.get(measure, measure)
        cfg["label"] = (token if token == "neutral"
                        else f"{token}-{risk.get('rho')}")
    plan = model.decode_plan(x)
    report = simulate_policy(model.instance, plan, replications=cfg["reps"],
                             seed=cfg["seed"], label=cfg["label"],
                             zero_demand=cfg["zero_demand"])
    fileio.write_simulation_csv(cfg["out"], [report])
    print(f"policy={report.label} reps={report.replications} "
          f"mean_events={report.mean_events:.4f} "
          f"mean_quantity={report.mean_quantity:.4f} "
          f"mean_total_cost={report.mean_total_cost:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _read_sim_table(path):
    """The table's replication rows, each with its four values as floats."""
    values = fileio.SIMULATION_FIELDS[2:]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != fileio.SIMULATION_FIELDS:
            raise UsageError(f"{path}: not a simulation table "
                             f"(columns {reader.fieldnames})")
        for row in reader:
            if None in row:                      # csv files extra cells under None
                raise UsageError(f"{path}: line {reader.line_num}: row has more "
                                 "cells than the header")
            if row["replication"] == "mean":
                continue
            try:
                parsed = [float(row[f]) for f in values]
            except (TypeError, ValueError):      # a missing or non-numeric cell
                parsed = [math.nan]
            if not all(map(math.isfinite, parsed)):
                raise UsageError(f"{path}: line {reader.line_num}: replication "
                                 "values must be finite numbers")
            row.update(zip(values, parsed))
            rows.append(row)
    return rows


def run_report(cfg):
    rows = []
    for path in cfg["inputs"]:
        try:
            rows.extend(_read_sim_table(path))
        except OSError as exc:
            raise UsageError(str(exc)) from exc
    if not rows:
        raise UsageError("no simulation rows in the inputs")
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append(row)
    table = []
    for policy, group in by_policy.items():
        events = np.array([r["lost_sales_events"] for r in group])
        qty = np.array([r["lost_sales_quantity"] for r in group])
        rec = np.array([r["recourse_cost"] for r in group])
        replen, *others = dict.fromkeys(r["replenishment_cost"] for r in group)
        if others:
            raise UsageError(f"policy {policy!r} carries two plan costs: "
                             f"{replen!r} and {others[0]!r}")
        table.append({
            "policy": policy, "replications": len(group),
            "mean_lost_sales_events": repr(float(events.mean())),
            "mean_lost_sales_quantity": repr(float(qty.mean())),
            "mean_recourse_cost": repr(float(rec.mean())),
            "replenishment_cost": repr(replen),
            "mean_total_cost": repr(float(rec.mean()) + replen),
        })
    fileio.write_history_csv(cfg["out"], table, list(table[0]))
    for entry in table:
        print(f"policy={entry['policy']} reps={entry['replications']} "
              f"mean_events={float(entry['mean_lost_sales_events']):.4f} "
              f"mean_quantity={float(entry['mean_lost_sales_quantity']):.4f} "
              f"mean_total_cost={float(entry['mean_total_cost']):.4f}")
    if cfg["plots"]:
        _render_plots(table, cfg["plots"])
    return EXIT_OK


def _png_chunk(tag, data):
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", binascii.crc32(tag + data)))


def _bar_chart_png(series, labels, values):
    """One-series bar chart as 8-bit RGB PNG bytes.

    The canvas is white and split into ``len(values)`` equal slots, one bar
    per slot in order, centred and filling half of it.  Bars rise from the
    bottom edge, scaled so that the largest value reaches 90% of the height;
    a value of zero or less draws nothing.  No fonts are drawn, so a ``tEXt`` chunk carries
    the series name and each label with its value.  The compression level
    is fixed, so equal inputs give equal bytes.
    """
    width, height = CHART_SIZE
    top = max(values)
    bars = [round(0.9 * height * v / top) if top > 0 else 0 for v in values]
    slot = width / len(values)
    spans = [(round((k + 0.25) * slot), round((k + 0.75) * slot))
             for k in range(len(values))]
    rows = []
    for y in range(height):
        row = bytearray(b"\xff" * 3 * width)
        for bar, (x0, x1) in zip(bars, spans):
            if height - y <= bar:
                row[3 * x0:3 * x1] = BAR_RGB * (x1 - x0)
        rows.append(b"\x00" + bytes(row))
    caption = f"{series}: " + ", ".join(
        f"{label}={v!r}" for label, v in zip(labels, values))
    return b"".join((
        b"\x89PNG\r\n\x1a\n",
        _png_chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
        _png_chunk(b"tEXt", b"Title\0" + caption.encode("latin-1", "replace")),
        _png_chunk(b"IDAT", zlib.compress(b"".join(rows), 9)),
        _png_chunk(b"IEND", b"")))


def _render_plots(table, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    policies = [row["policy"] for row in table]
    for (stem, column), path in zip(PLOT_SERIES.items(), _plot_files(out_dir)):
        values = [float(r[column]) for r in table]
        with open(path, "wb") as fh:
            fh.write(_bar_chart_png(stem, policies, values))


# ---------------------------------------------------------------------------
# rerun


def _fits(action, value):
    """Whether a manifest value has the JSON type that action parses to;
    a bool is no number."""
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.type is int:
        return isinstance(value, int)
    if action.type is float:
        return isinstance(value, (int, float))
    if action.nargs == "+":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, str)


def _check_config(parser, cfg):
    """Raise UsageError unless cfg has a key for every argument of parser,
    each null or of the argument's type and within its choices; the chosen
    subcommand's parser is checked in turn."""
    missing = []
    for action in parser._actions:
        key = action.dest
        if key == "help":
            continue
        if key not in cfg:
            missing.append(key)
        elif cfg[key] is not None and not _fits(action, cfg[key]):
            raise UsageError(f"manifest {key} {cfg[key]!r} has the wrong type")
        elif action.choices is not None:
            if cfg[key] not in action.choices:
                raise UsageError(f"unknown {key} {cfg[key]!r}")
            if isinstance(action, argparse._SubParsersAction):
                _check_config(action.choices[cfg[key]], cfg)
    if missing:
        raise UsageError(f"manifest config lacks {', '.join(missing)}")


def run_rerun(cfg):
    doc = load_manifest(cfg["manifest"])
    sub = doc["subcommand"]
    if sub not in OUTPUT_KEYS:
        raise UsageError(f"cannot rerun subcommand '{sub}'")
    inner = dict(doc["config"])
    if sub == "solve" and inner.get("method") in METHODS:
        # older manifests record every method flag, read or not
        flags = METHODS[inner["method"]].flags
        inner.update((name, None) for name in METHOD_FLAGS if name not in flags)
    _check_config(build_parser(), dict(inner, subcommand=sub))
    out_dir = cfg["out_dir"]
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for key in OUTPUT_KEYS[sub]:
        if inner.get(key):
            inner[key] = os.path.join(out_dir, os.path.basename(inner[key]))
    code = execute(sub, inner)
    # a value check of the replayed run failed: leave no empty directory
    if code == EXIT_USAGE and created and not os.listdir(out_dir):
        os.rmdir(out_dir)
    return code


# ---------------------------------------------------------------------------
# dispatch


RUNNERS = {
    "gen": run_gen,
    "solve": run_solve,
    "simulate": run_simulate,
    "report": run_report,
    "rerun": run_rerun,
}


def execute(subcommand, cfg):
    """Run a subcommand from a resolved config dict; emits the manifest."""
    runner = RUNNERS[subcommand]
    start = time.perf_counter()
    try:
        code = runner(cfg)
    except (UsageError, ValidationError, fileio.ParseError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    wall = time.perf_counter() - start
    anchor = cfg.get("out")
    if subcommand in OUTPUT_KEYS and anchor and code != EXIT_USAGE:
        _write_manifest(anchor + MANIFEST_SUFFIX, subcommand, cfg,
                        _files(cfg, INPUT_KEYS[subcommand]),
                        _files(cfg, OUTPUT_KEYS[subcommand]), wall, code)
    return code


def build_parser():
    p = argparse.ArgumentParser(
        prog="riskshed",
        description="Two-stage stochastic programs with mean-risk objectives: "
                    "generators, extensive-form and decomposition solvers, "
                    "policy simulation, reporting.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate a problem file")
    gsub = g.add_subparsers(dest="kind", required=True)
    gk = gsub.add_parser("knapsack", help="two-stage binary knapsack family")
    gk.add_argument("--n1", type=int, required=True,
                    help="first-stage items")
    gk.add_argument("--n2", type=int, required=True,
                    help="second-stage items")
    gk.add_argument("--scens", type=int, required=True,
                    help="number of scenarios")
    gk.add_argument("--seed", type=int, default=0)
    gk.add_argument("--m1", type=int, default=10,
                    help="first-stage constraints")
    gk.add_argument("--m2", type=int, default=20,
                    help="second-stage constraints per scenario")
    gk.add_argument("--out", required=True, help="problem file to write")
    gm = gsub.add_parser("mssop", help="multi-item stochastic ordering family")
    gm.add_argument("--items", type=int, required=True)
    gm.add_argument("--periods", type=int, required=True)
    gm.add_argument("--scens", type=int, required=True)
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--lumpy", type=float, default=0.2,
                    help="fraction of item-period cells with lumpy demand")
    gm.add_argument("--out", required=True, help="problem file to write")

    s = sub.add_parser("solve", help="solve a problem file")
    s.add_argument("--in", dest="in", required=True,
                   help="problem file to read")
    s.add_argument("--risk", required=True, choices=tuple(RISK_TOKENS))
    s.add_argument("--rho", type=float, default=None,
                   help="risk weight in [0, 1]")
    s.add_argument("--eta", type=float, default=None,
                   help="excess target (ee and mod-ee only)")
    s.add_argument("--method", default="dep", choices=tuple(METHODS))
    s.add_argument("--backend", default="scipy", choices=("scipy",),
                   help="solver (HiGHS through scipy)")
    s.add_argument("--threads", type=int, default=1,
                   help="workers for per-scenario solves")
    # Method flags: None means unset; see METHODS for who reads which.
    s.add_argument("--mip-gap", dest="mip_gap", type=float, default=None)
    s.add_argument("--node-cap", dest="node_cap", type=int, default=None)
    s.add_argument("--tol", type=float, default=None,
                   help="decomposition convergence tolerance")
    s.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    s.add_argument("--multicut", action="store_true", default=None,
                   help="one cut per scenario in the shaped master")
    s.add_argument("--collapse-mean-row", dest="collapse_mean_row",
                   action="store_true", default=None,
                   help="sparse semideviation extensive form")
    s.add_argument("--epsilon", type=float, default=None,
                   help="absolute gap target for the bounding driver")
    s.add_argument("--xi", type=float, default=None,
                   help="target adjustment step for the bounding driver")
    s.add_argument("--out", required=True, help="result file to write")

    sim = sub.add_parser("simulate", help="simulate a plan on fresh demand")
    sim.add_argument("--in", dest="in", required=True,
                     help="ordering-instance problem file")
    sim.add_argument("--plan", required=True,
                     help="result file holding the first-stage plan")
    sim.add_argument("--reps", type=int, default=5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--zero-demand", dest="zero_demand",
                     action="store_true",
                     help="deterministic all-zero demand override")
    sim.add_argument("--label", default=None,
                     help="policy label (default: derived from the plan)")
    sim.add_argument("--out", required=True, help="simulation CSV to write")

    r = sub.add_parser("report", help="aggregate simulation tables")
    r.add_argument("--inputs", nargs="+", required=True,
                   help="simulation CSVs")
    r.add_argument("--out", required=True, help="aggregated CSV to write")
    r.add_argument("--plots", default=None,
                   help="directory for one bar-chart PNG per series")

    rr = sub.add_parser("rerun", help="replay a run from its manifest")
    rr.add_argument("--manifest", required=True)
    rr.add_argument("--out-dir", dest="out_dir", required=True,
                    help="directory receiving the replayed outputs")

    return p


def main(argv=None):
    cfg = vars(build_parser().parse_args(argv))
    subcommand = cfg.pop("subcommand")
    return execute(subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
