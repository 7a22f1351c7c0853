"""riskshed benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload asd_small --seed 0 --seconds 55 --trace 0

Every workload runs in fresh child processes (bench/child.py) with one
worker thread; their stdout and stderr, which also carry HiGHS output
written straight to fd 1, go to a log under .bench_out/.

--trace 0 reports the end-to-end metrics.  The batch runs in whole passes
that fit in --seconds, and each instance of the batch counts with its
median time over those passes: instance_s is the median of these times,
wall_s their sum.  Set-up time is
the median of several child starts, the workload's own and SETUP_PROBES
that stop at the first timed call.  --trace 1 runs one pass untraced and
one traced, and reports the per-layer metrics of the traced pass plus the
tracing overhead against the untraced one.

The last line of stdout is the result as one JSON object; the lines before
it give every metric with its unit, the failures found and the
environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# asd_mid is not in BENCHMARK.json: it stays runnable for per-layer evidence
# on the driver's start-up, but its times swing too far from seed to seed
# to gate a change (README.md).
WORKLOADS = ("asd_small", "asd_mid", "ordering_pipeline")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END = {"instance_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and checked, but not part of the result line: wall_s moves with
# how many instances of a seed's batch converge early, failed_share is 0
# when the program is right, and final_gap_pct exists on asd_* only.
REPORTED = {"wall_s": "s", "failed_share": "ratio", "final_gap_pct": "%"}

LAYERS = {
    "backend.mip_calls": "count", "backend.lp_calls": "count",
    "backend.mip_s": "s", "backend.lp_s": "s", "backend.highs_s": "s",
    "backend.adapter_s": "s", "backend.nodes": "count",
    "backend.lp_iterations": "count",
    **{f"backend.{caller}_{kind}": unit
       for caller in ("scenario_eval", "subproblem", "master", "dep", "other")
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "model.scenario_evals": "count", "model.scenario_evals_distinct": "count",
    "model.repeat_share": "ratio", "model.eval_s": "s",
    "lshaped.iterations": "count", "lshaped.subproblem_rounds": "count",
    "lshaped.subproblem_s": "s", "lshaped.master_builds": "count",
    "lshaped.master_build_s": "s", "lshaped.cuts_added": "count",
    "lshaped.duplicate_cut_share": "ratio",
    "asd_bounds.init_s": "s", "asd_bounds.iterations": "count",
    "asd_bounds.stalled_iterations": "count", "asd_bounds.cut_s": "s",
    "asd_bounds.converged": "count", "asd_bounds.iteration_cap": "count",
    "dep.builds": "count", "dep.build_s": "s", "dep.peak_mb": "MB",
    "dep.nnz": "count", "dep.dense_mb": "MB-computed",
    "mssop.builds": "count", "mssop.build_s": "s", "mssop.simulate_s": "s",
    "mssop.sim_reps": "count",
    "fileio.loads": "count", "fileio.load_s": "s", "fileio.saves": "count",
    "fileio.save_s": "s", "fileio.bytes_written": "bytes",
    "cli.solve_s": "s", "cli.simulate_s": "s", "cli.report_s": "s",
    "knapsack.gen_s": "s", "oracle.check_s": "s", "proc.cpu_s": "s",
    "proc.trace_overhead_pct": "%",
}
# Times of layers that a workload in BENCHMARK.json never enters read 0.0 on
# every run of that workload, so they are printed with the rest but left
# out of the result line, which carries only figures every workload measures.
WORKLOAD_SPECIFIC = {
    name for name, unit in LAYERS.items() if unit == "s"
    and name not in ("backend.mip_s", "backend.highs_s", "backend.adapter_s",
                     "backend.dep_s", "dep.build_s", "oracle.check_s", "proc.cpu_s")}
RESULT_LAYERS = [name for name in LAYERS if name not in WORKLOAD_SPECIFIC]
UNITS = {**END_TO_END, **REPORTED, **LAYERS}


class ChildFailed(RuntimeError):
    pass


def environment():
    commit = None
    try:
        found = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        # a checkout without .git may sit inside some other repository
        if len(found) == 2 and Path(found[0]).resolve() == ROOT:
            commit = found[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "riskshed").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "git_commit": commit,
        "source_sha256": digest.hexdigest(), "machine": platform.machine(),
    }


def spawn(args, tag, deadline, trace=0, setup_only=False):
    """Run one child to completion and return its result document."""
    workdir = OUT / f"{args.workload}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    env = dict(os.environ, RISKSHED_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = OUT / f"{args.workload}-{tag}.log"
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--workdir", str(workdir), "--out", str(out),
           "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "wb") as fh:
        try:
            code = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=max(1.0, deadline - spawned_at)
                                  ).returncode
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{tag} child passed the time limit; log in {log}") from None
    if code != 0 or not out.is_file():
        tail = log.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{tag} child exited with {code}; log {log}:\n{tail}")
    result = json.loads(out.read_text())
    shutil.rmtree(workdir)
    return result


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    probes = []
    if args.trace:
        one_pass = argparse.Namespace(**{**vars(args), "seconds": 0})
        plain = spawn(one_pass, "untraced", deadline)
        traced = spawn(one_pass, "traced", deadline, trace=1)
        runs = [plain, traced]
        shown = dict(traced["layers"])
        shown["knapsack.gen_s"] = traced.get("knapsack.gen_s", 0.0)
        shown["oracle.check_s"] = traced["check_s"]
        shown["proc.cpu_s"] = traced["cpu_s"]
        shown["proc.trace_overhead_pct"] = 100.0 * (
            traced["passes"][0] / plain["passes"][0] - 1.0)
        result_names = RESULT_LAYERS
    else:
        probes = [spawn(args, f"setup{i}", deadline, setup_only=True)
                  for i in range(SETUP_PROBES)]
        main = spawn(args, "main", deadline)
        runs = [main]
        typical = [statistics.median(times) for times in zip(*main["instance_times"])]
        shown = {
            "instance_s": statistics.median(typical),
            "setup_s": statistics.median([r["setup_s"] for r in probes + runs]),
            "peak_rss_mb": main["peak_rss_mb"],
            "wall_s": sum(typical),
        }
        result_names = list(END_TO_END)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    shown["failed_share"] = failed / attempted
    if runs[0].get("final_gap_pct") is not None:
        shown["final_gap_pct"] = runs[0]["final_gap_pct"]
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in shown.items()}

    print(f"riskshed benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit']}")
    for name, value in shown.items():
        print(f"  {args.workload:<18} {name:<32} {value:>16.6g} {UNITS[name]}")
    print(json.dumps({"details": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "passes_s": [r["passes"] for r in runs],
        "instance_times_s": [r["instance_times"] for r in runs],
        "setup_samples_s": [r["setup_s"] for r in runs + probes],
        "failures": [r["failures"] for r in runs],
        "metrics": metrics,
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: metrics[name] for name in result_names},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riskshed" / "__init__.py").is_file():
        print(f"bench: no riskshed sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        run(args)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
