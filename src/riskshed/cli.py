"""Command-line operator surface: generate, solve, simulate, report, rerun.

Every subcommand resolves its arguments into a plain config dict, hands it
to a runner, and writes a run manifest next to the primary output.  The
manifest stores the fully materialized config, so ``rerun`` can replay any
run with its outputs redirected into a fresh directory; result files from
a replay are byte-identical to the originals.

Exit codes: 0 success, 2 usage or configuration error, 3 infeasible or
unbounded model, 4 iteration/node cap reached (partial result still
written).
"""
from __future__ import annotations

import argparse
import binascii
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
from .backend import get_backend
from .dep import (build_dep_absolute_semideviation, build_dep_expectation,
                  build_dep_expected_excess, build_dep_modified_expected_excess)
from .knapsack import (RNG_IDENTITY, KnapsackGenSpec, audit_dimensions,
                       generate_knapsack)
from .lshaped import lshaped_solve
from .model import RiskMeasure, RiskSpec, evaluate_objective
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
    "report": (),
}

CHART_SIZE = (320, 200)             # report --plots canvas, pixels
BAR_RGB = bytes((70, 130, 180))     # steel blue
# report --plots: one <stem>.png per series, drawn from the summary column.
PLOT_SERIES = {
    "lost_sales_events": "mean_lost_sales_events",
    "lost_sales_quantity": "mean_lost_sales_quantity",
    "total_cost": "mean_total_cost",
}

SIM_FIELDS = ["policy", "replication", "lost_sales_events",
              "lost_sales_quantity", "recourse_cost", "replenishment_cost"]


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
    fileio._atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


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
        try:
            spec = KnapsackGenSpec(n1=cfg["n1"], n2=cfg["n2"],
                                   num_scenarios=cfg["scens"],
                                   seed=cfg["seed"], m1=cfg["m1"], m2=cfg["m2"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        problem = generate_knapsack(spec)
        generator = {"family": "knapsack", "n1": spec.n1, "n2": spec.n2,
                     "num_scenarios": spec.num_scenarios, "m1": spec.m1,
                     "m2": spec.m2, "seed": spec.seed}
        fileio.save_problem(cfg["out"], problem=problem, kind="knapsack",
                            generator=generator,
                            rng={"identity": RNG_IDENTITY, "seed": spec.seed})
        audited = problem
    else:
        try:
            instance = generate_mssop_instance(
                cfg["items"], cfg["periods"], cfg["scens"],
                lumpy_fraction=cfg["lumpy"], seed=cfg["seed"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
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
        if eta is not None:
            raise UsageError("--eta applies to the excess measures only")
    else:
        if rho is None:
            raise UsageError(f"--risk {risk} needs --rho")
        if not 0.0 <= rho <= 1.0:
            raise UsageError("--rho must lie in [0, 1]")
    if risk in ("ee", "mod-ee"):
        if eta is None:
            raise UsageError(f"--risk {risk} needs an excess target --eta")
        if not math.isfinite(eta):
            raise UsageError("--eta must be finite")
    elif eta is not None:
        raise UsageError("--eta applies to the excess measures only")
    if method == "lshaped" and risk != "mod-ee":
        raise UsageError("--method lshaped supports --risk mod-ee only")
    if method == "rm-asd" and risk != "asd":
        raise UsageError("--method rm-asd requires --risk asd")


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
    history = []
    if sol.status in ("infeasible", "unbounded"):
        return (EXIT_INFEASIBLE, dict(status=sol.status), history)
    if sol.status == "node_cap":
        fields = dict(status="node_cap", lower=sol.bound,
                      objective=sol.objective, upper=sol.objective)
        if sol.objective is not None and sol.bound is not None:
            fields["gap_percent"] = util.gap_percent(sol.bound, sol.objective)
        if sol.x is not None:
            fields["x"] = art.first_stage_values(sol.x)
        return (EXIT_CAP, fields, history)
    obj, bound = sol.objective, sol.bound
    history.append({"iteration": 0, "lower": bound, "upper": obj,
                    "gap": obj - bound, "event": "dep"})
    fields = dict(status="optimal", objective=obj, lower=bound, upper=obj,
                  gap_percent=util.gap_percent(bound, obj),
                  x=art.first_stage_values(sol.x))
    return (EXIT_OK, fields, history)


def _solve_lshaped(cfg, problem, backend):
    res = lshaped_solve(problem, cfg["rho"], cfg["eta"], backend=backend,
                        tol=cfg["tol"], max_iters=cfg["max_iters"],
                        multicut=cfg["multicut"], threads=cfg["threads"])
    spec = RiskSpec(RiskMeasure.MODIFIED_EXPECTED_EXCESS,
                    rho=cfg["rho"], eta=cfg["eta"])
    upper = evaluate_objective(problem, res.x, spec, backend=backend,
                               threads=cfg["threads"])
    lower = min(res.master_objective, upper)
    fields = dict(status=res.status, objective=upper, lower=lower,
                  upper=upper, gap_percent=util.gap_percent(lower, upper),
                  x=res.x,
                  extras={"iterations": res.iterations, "cuts": len(res.cuts)})
    code = EXIT_OK if res.status == "converged" else EXIT_CAP
    return (code, fields, res.history)


def _solve_rm_asd(cfg, problem, backend):
    try:
        config = AsdBoundsConfig(
            rho=cfg["rho"], epsilon=cfg["epsilon"], xi=cfg["xi"],
            max_iters=cfg["max_iters"], backend=backend,
            threads=cfg["threads"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    state = rm_asd_solve(problem, config)
    fields = dict(
        status=state.status, objective=state.upper, lower=state.lower,
        upper=state.upper, gap_percent=state.gap_percent(), x=state.x_best,
        extras={"eta_final": state.eta,
                "q_expectation": state.q_expectation,
                "iterations": len(state.history) - 1,
                "cuts": len(state.pool)})
    code = EXIT_OK if state.status == "converged" else EXIT_CAP
    return (code, fields, state.history)


_HISTORY_FIELDS = {
    "dep": ["iteration", "lower", "upper", "gap", "event"],
    "lshaped": ["iteration", "master", "theta", "recourse", "gap", "cuts"],
    "rm-asd": ["iteration", "eta", "lower", "upper", "gap", "s_plus",
               "s_minus", "cuts_added", "event"],
}


def run_solve(cfg):
    _validate_solve(cfg)
    pf = fileio.load_problem(cfg["in"])
    try:
        backend = get_backend(cfg["backend"])
    except ValueError as exc:     # a manifest naming a removed backend
        raise UsageError(str(exc)) from None
    cfg["backend"] = backend.name
    if cfg["max_iters"] is None:
        cfg["max_iters"] = 50 if cfg["method"] == "rm-asd" else 200
    cfg["history"] = _history_path(cfg["out"])

    solver = {"dep": _solve_dep, "lshaped": _solve_lshaped,
              "rm-asd": _solve_rm_asd}[cfg["method"]]
    try:
        code, fields, history = solver(cfg, pf.problem, backend)
    except RuntimeError as exc:
        if "infeasible" not in str(exc).lower():
            raise
        print(f"error: {exc}", file=sys.stderr)
        code, fields, history = EXIT_INFEASIBLE, dict(status="infeasible"), []

    gp = fields.get("gap_percent")
    if gp is not None and not np.isfinite(gp):
        fields["gap_percent"] = None
    risk_doc = {"measure": RISK_TOKENS[cfg["risk"]], "rho": cfg["rho"],
                "eta": cfg["eta"]}
    extras = fields.pop("extras", {})
    fileio.save_result(cfg["out"], method=cfg["method"], risk=risk_doc,
                       backend=cfg["backend"], instance_name=pf.name,
                       instance_checksum=pf.checksum,
                       counters=backend.stats.as_dict(), extras=extras,
                       **fields)
    fileio.write_history_csv(cfg["history"], history,
                             _HISTORY_FIELDS[cfg["method"]])
    _print_bounds(fields.get("lower"), fields.get("upper"),
                  fields.get("gap_percent"))
    return code


# ---------------------------------------------------------------------------
# simulate


def run_simulate(cfg):
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
    model = build_mssop_two_stage(pf.instance)
    x = np.asarray(x, dtype=float)
    if x.size != model.problem.n1:
        raise UsageError(f"plan length {x.size} does not match instance "
                         f"first stage ({model.problem.n1} variables)")
    if cfg["label"] is None:
        risk = plan_doc.get("risk") or {}
        measure = risk.get("measure", "expectation")
        token = {v: k for k, v in RISK_TOKENS.items()}.get(measure, measure)
        if token == "neutral":
            cfg["label"] = "neutral"
        else:
            cfg["label"] = f"{token}-{risk.get('rho')}"
    plan = model.decode_plan(x)
    report = simulate_policy(pf.instance, plan, replications=cfg["reps"],
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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SIM_FIELDS:
            raise UsageError(f"{path}: not a simulation table "
                             f"(columns {reader.fieldnames})")
        return [row for row in reader if row["replication"] != "mean"]


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
        events = np.array([float(r["lost_sales_events"]) for r in group])
        qty = np.array([float(r["lost_sales_quantity"]) for r in group])
        rec = np.array([float(r["recourse_cost"]) for r in group])
        replen = float(group[0]["replenishment_cost"])
        table.append({
            "policy": policy, "replications": len(group),
            "mean_lost_sales_events": repr(float(events.mean())),
            "mean_lost_sales_quantity": repr(float(qty.mean())),
            "mean_recourse_cost": repr(float(rec.mean())),
            "replenishment_cost": repr(replen),
            "mean_total_cost": repr(float(rec.mean()) + replen),
        })
    fields = ["policy", "replications", "mean_lost_sales_events",
              "mean_lost_sales_quantity", "mean_recourse_cost",
              "replenishment_cost", "mean_total_cost"]
    fileio.write_history_csv(cfg["out"], table, fields)
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


def run_rerun(cfg):
    doc = load_manifest(cfg["manifest"])
    sub = doc["subcommand"]
    if sub not in OUTPUT_KEYS:
        raise UsageError(f"cannot rerun subcommand '{sub}'")
    inner = dict(doc["config"])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for key in OUTPUT_KEYS[sub]:
        if inner.get(key):
            inner[key] = os.path.join(out_dir, os.path.basename(inner[key]))
    return execute(sub, inner)


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
    except (UsageError, fileio.ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    wall = time.perf_counter() - start
    anchor = cfg.get("out")
    if subcommand in OUTPUT_KEYS and anchor:
        inputs = [cfg[k] for k in INPUT_KEYS[subcommand] if cfg.get(k)]
        if subcommand == "report":
            inputs = list(cfg["inputs"])
        outputs = []
        for key in OUTPUT_KEYS[subcommand]:
            if cfg.get(key):
                outputs += _plot_files(cfg[key]) if key == "plots" else [cfg[key]]
        _write_manifest(anchor + MANIFEST_SUFFIX, subcommand, cfg, inputs,
                        outputs, wall, code)
    return code


def _config_from_args(args):
    sub = args.subcommand
    if sub == "gen":
        base = {"kind": args.kind, "scens": args.scens, "seed": args.seed,
                "out": args.out}
        if args.kind == "knapsack":
            base.update(n1=args.n1, n2=args.n2, m1=args.m1, m2=args.m2)
        else:
            base.update(items=args.items, periods=args.periods,
                        lumpy=args.lumpy)
        return base
    if sub == "solve":
        return {"in": args.infile, "out": args.out, "risk": args.risk,
                "rho": args.rho, "eta": args.eta, "method": args.method,
                "backend": args.backend,
                "threads": util.resolve_threads(args.threads),
                "mip_gap": args.mip_gap, "node_cap": args.node_cap,
                "tol": args.tol, "max_iters": args.max_iters,
                "multicut": args.multicut,
                "collapse_mean_row": args.collapse_mean_row,
                "epsilon": args.epsilon, "xi": args.xi}
    if sub == "simulate":
        return {"in": args.infile, "plan": args.plan, "reps": args.reps,
                "seed": args.seed, "zero_demand": args.zero_demand,
                "label": args.label, "out": args.out}
    if sub == "report":
        return {"inputs": list(args.inputs), "out": args.out,
                "plots": args.plots}
    if sub == "rerun":
        return {"manifest": args.manifest, "out_dir": args.out_dir}
    raise ValueError(f"unknown subcommand {sub!r}")


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
    s.add_argument("--in", dest="infile", required=True,
                   help="problem file to read")
    s.add_argument("--risk", required=True,
                   choices=("neutral", "ee", "mod-ee", "asd"))
    s.add_argument("--rho", type=float, default=None,
                   help="risk weight in [0, 1]")
    s.add_argument("--eta", type=float, default=None,
                   help="excess target (ee and mod-ee only)")
    s.add_argument("--method", default="dep",
                   choices=("dep", "lshaped", "rm-asd"))
    s.add_argument("--backend", default="scipy", choices=("scipy",),
                   help="solver (HiGHS through scipy)")
    s.add_argument("--threads", type=int, default=None,
                   help="worker cap; RISKSHED_THREADS as fallback")
    s.add_argument("--mip-gap", dest="mip_gap", type=float, default=1e-6)
    s.add_argument("--node-cap", dest="node_cap", type=int, default=200_000)
    s.add_argument("--tol", type=float, default=1e-6,
                   help="decomposition convergence tolerance")
    s.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    s.add_argument("--multicut", action="store_true",
                   help="one cut per scenario in the shaped master")
    s.add_argument("--collapse-mean-row", dest="collapse_mean_row",
                   action="store_true",
                   help="sparse semideviation extensive form")
    s.add_argument("--epsilon", type=float, default=None,
                   help="absolute gap target for the bounding driver")
    s.add_argument("--xi", type=float, default=None,
                   help="target adjustment step for the bounding driver")
    s.add_argument("--out", required=True, help="result file to write")

    sim = sub.add_parser("simulate", help="simulate a plan on fresh demand")
    sim.add_argument("--in", dest="infile", required=True,
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
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    return execute(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
