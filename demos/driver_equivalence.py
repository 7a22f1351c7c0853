"""Record or compare the bounding driver's outcome on two batches, the
semideviation extensive form's optimum on two batches, or what the CLI
writes on a fixed script.

    PYTHONPATH=<tree A>/src python demos/driver_equivalence.py dump a.json
    PYTHONPATH=<tree B>/src python demos/driver_equivalence.py dump b.json
    python demos/driver_equivalence.py compare a.json b.json

``dump`` runs ``rm_asd_solve`` (scipy backend) on three batches: the
twenty K.6.6.4 instances of acceptance criterion 4 (seeds 0-19, m1=3,
m2=4; rho 0.5, 15 iterations), the ninety svc runs of ROADMAP item 1
(``svc_problem`` from ``tests/conftest.py``, seeds 0-29, rho 0.2, 0.5 and
0.9, 12 iterations), and five K.10.12.5 instances with n2 at
``model.neutral_plan``'s cap (``CAP_SEEDS``, m1=3, m2=4; rho 0.5, 5
iterations).  Per run it writes the final state (``STATE_FIELDS``:
status, both bounds, the target eta, its step xi and stall count, both
first stages, the scenario totals and both scenario classes), every
history column, the backend's solve counters, the pool size, and a digest
over every program the run sends to the backend, in call order
(``riskshed.backend.memo._digest`` of each, taken by a recording
``ScipyBackend``).  On the criterion-4 batch it also runs
``lshaped_solve`` (rho ``LSHAPED_RHO``, eta ``LSHAPED_ETA``) single-cut
and multicut and records each run's program digest.  Floats are stored
with ``float.hex``, so ``compare`` checks them bit for bit.  ``compare``
reports, per run, every field that differs, every program digest that
differs, and the two sides' counters and pool sizes, then how many runs
of each batch are identical.  Extra arguments name history columns to
leave out, such as ``wall_time``, which older trees wrote.  The exit
status is 1 when anything compared differs.

    PYTHONPATH=<tree A>/src python demos/driver_equivalence.py dep-dump a.json [SEED]
    PYTHONPATH=<tree B>/src python demos/driver_equivalence.py dep-dump b.json [SEED]
    python demos/driver_equivalence.py dep-compare a.json b.json

``dep-dump`` solves the absolute-semideviation extensive form at rho 0.5
and 0.9 on the sixteen M.4.8.5 instances of the benchmark's
``ordering_pipeline`` workload at SEED (default 0; instance seeds
16*SEED..16*SEED+15; collapsed mean row, gap 1e-4, as the workload's
``solve`` calls) and on the twenty criterion-4 knapsack instances
(per-scenario mean rows, gap 0), and writes each objective, first-stage
vector, binary mask and solve time.  It also writes, per instance and
rho, a digest (``riskshed.backend.memo._digest``: objective, matrix,
senses, rhs, bounds and binary mask) of the program every builder
assembles: the neutral form, both excess forms at eta ``DIGEST_ETA`` and
the semideviation form with and without the collapsed mean row; these
are built, not solved.  ``dep-compare`` prints, per batch,
the largest relative objective difference, whether the binary first-stage
values match, the largest continuous first-stage difference and both
sides' total solve time, and lists every instance past 1e-9 relative, a
binary mismatch or 1e-6 continuous with both objectives, and every
instance whose program digests differ, with the builders that differ;
the exit status is 1 when any instance is listed.

    PYTHONPATH=<tree A>/src python demos/driver_equivalence.py cli-dump a.json
    PYTHONPATH=<tree B>/src python demos/driver_equivalence.py cli-dump b.json
    python demos/driver_equivalence.py cli-compare a.json b.json

``cli-dump`` runs ``CLI_SCRIPT`` through ``riskshed.cli.main`` in a fresh
temporary directory, with relative paths so that manifests from two trees
name the same files.  The script runs every subcommand and every
``--method``, runs the collapsed semideviation solve and one ``rm-asd``
solve on two workers, hits the node and iteration caps and one usage error,
replays four manifests, and then runs two faults on problem files that
``cli-dump`` writes first (``FAULT_FILES``): an lshaped run whose plan has
no binary recourse, and scenario probabilities that sum to 0.5.  The model
refuses to build the latter, so each file is saved with both probabilities
at 0.5 and its payload then edited.  It ends with four reports: one over
the same simulation table given twice, so that rows under one label merge,
and three over tables that ``report`` refuses (``FAULT_TABLES``, also
written first): a non-numeric cell, a row longer than the header, and one
label with two plan costs.  ``cli-dump`` writes each step's exit
code (``raised <Type>`` for a step that raises) and printed output, the
SHA-256 of every file the steps leave behind, and each manifest's
``config``, ``inputs``, ``outputs``, ``checksums`` and ``exit_status`` (not
its wall time).  ``cli-compare`` lists every step and file that differs;
the exit status is 1 when anything is listed.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from collections import Counter

import numpy as np

SEEDS = range(20)
SVC_SEEDS, SVC_RHOS = range(30), (0.2, 0.5, 0.9)
CAP_SEEDS = range(5)
# the final ``rm_asd_solve`` state that ``dump`` records and ``compare`` checks bit for bit
STATE_FIELDS = ("status", "lower", "upper", "eta", "xi", "stalls", "x_hat",
                "x_best", "totals", "s_plus", "s_minus")
DIGEST_ETA = 12.5       # any nonzero target: it only has to reach the rhs
LSHAPED_RHO, LSHAPED_ETA = 0.4, -900.0


def _hex(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [_hex(v) for v in value.tolist()]
    return value


def _recording_backend():
    """A ScipyBackend that folds every program it is sent, in call order,
    into one BLAKE2b digest (``riskshed.backend.memo._digest`` per call)."""
    from riskshed.backend import DEFAULT_NODE_CAP, ScipyBackend
    from riskshed.backend.memo import _digest

    class Recording(ScipyBackend):
        def __init__(self):
            super().__init__()
            self.programs = hashlib.blake2b(digest_size=32)

        def solve_lp(self, lp):
            self.programs.update(_digest(lp))
            return super().solve_lp(lp)

        def solve_mip(self, mip, gap_tol=0.0, node_cap=DEFAULT_NODE_CAP):
            self.programs.update(_digest(mip.lp, mip.binary,
                                         (float(gap_tol), int(node_cap))))
            return super().solve_mip(mip, gap_tol=gap_tol, node_cap=node_cap)

    return Recording()


def _rm_asd_record(problem, rho, max_iters):
    """One ``rm_asd_solve`` run on a recording backend, as a dump record."""
    from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve

    backend = _recording_backend()
    state = rm_asd_solve(problem, AsdBoundsConfig(rho=rho, max_iters=max_iters,
                                                  backend=backend))
    record = {k: _hex(getattr(state, k)) for k in STATE_FIELDS}
    record.update(
        history=[{k: _hex(v) for k, v in row.items()} for row in state.history],
        counters=backend.stats.as_dict(), pool=len(state.pool),
        programs={"rm-asd": backend.programs.hexdigest()})
    return record


def dump(path):
    from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
    from riskshed.lshaped import lshaped_solve

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "tests"))
    from conftest import svc_problem

    records = []
    start = time.perf_counter()
    for seed in SEEDS:
        problem = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=seed, m1=3, m2=4))
        record = {"batch": "criterion-4", "seed": seed, "rho": 0.5,
                  **_rm_asd_record(problem, 0.5, 15)}
        for multicut in (False, True):
            recording = _recording_backend()
            lshaped_solve(problem, LSHAPED_RHO, LSHAPED_ETA, backend=recording,
                          multicut=multicut)
            record["programs"]["lshaped-multicut" if multicut else "lshaped"] = (
                recording.programs.hexdigest())
        records.append(record)
    for seed in SVC_SEEDS:
        for rho in SVC_RHOS:
            records.append({"batch": "svc", "seed": seed, "rho": rho,
                            **_rm_asd_record(svc_problem(seed), rho, 12)})
    for seed in CAP_SEEDS:
        problem = generate_knapsack(KnapsackGenSpec(10, 12, 5, seed=seed, m1=3, m2=4))
        records.append({"batch": "cap", "seed": seed, "rho": 0.5,
                        **_rm_asd_record(problem, 0.5, 5)})
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"{len(records)} runs in {time.perf_counter() - start:.1f} s -> {path}")


def compare(path_a, path_b, ignore=()):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    skip = set(ignore)
    runs, differ = Counter(), Counter()
    for ra, rb in zip(a, b):
        batch = ra.get("batch", "criterion-4")
        found = [k for k in STATE_FIELDS if ra.get(k) != rb.get(k)]
        programs_a, programs_b = ra.get("programs", {}), rb.get("programs", {})
        found += [f"programs sent ({name})"
                  for name in sorted(programs_a.keys() | programs_b.keys())
                  if programs_a.get(name) != programs_b.get(name)]
        if len(ra["history"]) != len(rb["history"]):
            found.append(f"history length {len(ra['history'])} != {len(rb['history'])}")
        for i, (ha, hb) in enumerate(zip(ra["history"], rb["history"])):
            found += [f"history[{i}].{k}" for k in ha if k not in skip and ha[k] != hb.get(k)]
        ca, cb = ra["counters"], rb["counters"]
        print(f"{batch} seed {ra['seed']:2d} rho {ra.get('rho', 0.5)} "
              f"{ra['status']:<13} "
              f"lp {ca['lp_solves']:4d} -> {cb['lp_solves']:4d}  "
              f"mip {ca['mip_solves']:3d} -> {cb['mip_solves']:3d}  "
              f"cuts {ra['pool']:3d} -> {rb['pool']:3d}  "
              + ("identical" if not found else "DIFFERS: " + ", ".join(found)))
        runs[batch] += 1
        differ[batch] += bool(found)
    if len(a) != len(b):
        print(f"run counts differ: {len(a)} != {len(b)}")
    for batch, total in runs.items():
        print(f"{batch}: {total - differ[batch]}/{total} runs identical"
              + (f" (history {', '.join(sorted(skip))} not compared)" if skip else ""))
    return 1 if len(a) != len(b) or sum(differ.values()) else 0


def _dep_cases(seed):
    from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
    from riskshed.mssop import build_mssop_two_stage, generate_mssop_instance

    for k in range(16):
        instance = generate_mssop_instance(4, 8, 5, seed=16 * seed + k)
        yield "ordering", 16 * seed + k, build_mssop_two_stage(instance).problem, True, 1e-4
    for k in SEEDS:
        problem = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=k, m1=3, m2=4))
        yield "knapsack", k, problem, False, 0.0


def _program_digests(problem, rho):
    from riskshed import dep
    from riskshed.backend.memo import _digest

    forms = {
        "expectation": dep.build_dep_expectation(problem),
        "expected-excess": dep.build_dep_expected_excess(problem, rho, DIGEST_ETA),
        "modified-expected-excess": dep.build_dep_modified_expected_excess(
            problem, rho, DIGEST_ETA),
        "absolute-semideviation": dep.build_dep_absolute_semideviation(problem, rho),
        "absolute-semideviation-collapsed": dep.build_dep_absolute_semideviation(
            problem, rho, collapse_mean_row=True),
    }
    return {name: _digest(art.program.lp, art.program.binary).hex()
            for name, art in forms.items()}


def dep_dump(path, seed=0):
    from riskshed.backend import ScipyBackend
    from riskshed.dep import build_dep_absolute_semideviation

    records = []
    backend = ScipyBackend()
    for batch, instance_seed, problem, collapse, gap in _dep_cases(seed):
        for rho in (0.5, 0.9):
            art = build_dep_absolute_semideviation(problem, rho, collapse_mean_row=collapse)
            start = time.perf_counter()
            sol = backend.solve_mip(art.program, gap_tol=gap)
            seconds = time.perf_counter() - start
            records.append({
                "batch": batch, "seed": instance_seed, "rho": rho, "status": sol.status,
                "objective": _hex(sol.objective),
                "x": _hex(art.first_stage_values(sol.x)),
                "binary": problem.first_stage_integrality.tolist(), "seconds": seconds,
                "digests": _program_digests(problem, rho)})
            print(f"{batch} {instance_seed:3d} rho {rho} {sol.objective:.10g} "
                  f"{seconds:.3f} s", flush=True)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"{len(records)} solves -> {path}")


def dep_compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    listed = 0
    for batch in ("ordering", "knapsack"):
        pairs = [(ra, rb) for ra, rb in zip(a, b) if ra["batch"] == batch]
        worst_rel = worst_cont = 0.0
        binaries_match = True
        programs_differ = 0
        for ra, rb in pairs:
            oa, ob = float.fromhex(ra["objective"]), float.fromhex(rb["objective"])
            rel = abs(oa - ob) / max(1.0, abs(oa))
            mask = np.array(ra["binary"], dtype=bool)
            xa = np.array([float.fromhex(v) for v in ra["x"]])
            xb = np.array([float.fromhex(v) for v in rb["x"]])
            same_bin = np.array_equal(xa[mask], xb[mask])
            cont = float(np.max(np.abs(xa - xb)[~mask], initial=0.0))
            worst_rel, worst_cont = max(worst_rel, rel), max(worst_cont, cont)
            binaries_match &= bool(same_bin)
            if rel > 1e-9 or not same_bin or cont > 1e-6:
                listed += 1
                print(f"  {batch} seed {ra['seed']} rho {ra['rho']}: objective "
                      f"{oa!r} vs {ob!r}, binaries {'match' if same_bin else 'differ'}, "
                      f"continuous {cont:.3g}")
            digests_a, digests_b = ra.get("digests", {}), rb.get("digests", {})
            differ = sorted(k for k in digests_a.keys() | digests_b.keys()
                            if digests_a.get(k) != digests_b.get(k))
            if differ:
                listed += 1
                programs_differ += 1
                print(f"  {batch} seed {ra['seed']} rho {ra['rho']}: program "
                      f"digest differs for {', '.join(differ)}")
        print(f"{batch}: {len(pairs)} solves, largest relative objective difference "
              f"{worst_rel:.3g}, binaries {'identical' if binaries_match else 'DIFFER'}, "
              f"largest continuous difference {worst_cont:.3g}, programs identical "
              f"{len(pairs) - programs_differ}/{len(pairs)}, solve time "
              f"{sum(r['seconds'] for r, _ in pairs):.2f} s -> "
              f"{sum(r['seconds'] for _, r in pairs):.2f} s")
    if len(a) != len(b):
        print(f"solve counts differ: {len(a)} != {len(b)}")
        listed += 1
    return 1 if listed else 0


_KNAP = ["--in", "k.sp2.json"]
_ORDER = ["--in", "m.sp2.json", "--mip-gap", "1e-4"]
_MOD_EE = ["--risk", "mod-ee", "--rho", "0.4", "--eta", "-2200"]
_ASD = ["--risk", "asd", "--rho", "0.5"]
CLI_SCRIPT = [
    ["gen", "knapsack", "--n1", "5", "--n2", "6", "--scens", "3", "--seed", "4",
     "--m1", "3", "--m2", "4", "--out", "k.sp2.json"],
    ["gen", "knapsack", "--n1", "10", "--n2", "20", "--scens", "10", "--m1", "5",
     "--m2", "5", "--out", "cap.sp2.json"],
    ["gen", "mssop", "--items", "2", "--periods", "3", "--scens", "3", "--seed", "1",
     "--lumpy", "0.5", "--out", "m.sp2.json"],
    ["solve", *_KNAP, "--risk", "neutral", "--out", "k-neutral.result.json"],
    ["solve", *_KNAP, "--risk", "ee", "--rho", "0.4", "--eta", "-2200",
     "--out", "k-ee.result.json"],
    ["solve", *_KNAP, *_MOD_EE, "--out", "k-modee.result.json"],
    ["solve", *_KNAP, *_ASD, "--mip-gap", "0.05", "--out", "k-asd.result.json"],
    ["solve", *_KNAP, *_ASD, "--collapse-mean-row", "--threads", "2",
     "--out", "k-asd-collapsed.result.json"],
    ["solve", "--in", "cap.sp2.json", "--risk", "neutral", "--node-cap", "1",
     "--out", "cap.result.json"],
    ["solve", *_KNAP, *_MOD_EE, "--method", "lshaped", "--out", "k-ls.result.json"],
    ["solve", *_KNAP, *_MOD_EE, "--method", "lshaped", "--multicut", "--tol", "1e-4",
     "--out", "k-ls-multi.result.json"],
    ["solve", *_KNAP, *_MOD_EE, "--method", "lshaped", "--max-iters", "1",
     "--out", "k-ls-cap.result.json"],
    ["solve", *_KNAP, *_ASD, "--method", "rm-asd", "--out", "k-rm.result.json"],
    ["solve", *_KNAP, *_ASD, "--method", "rm-asd", "--max-iters", "3", "--epsilon",
     "0.5", "--xi", "20", "--out", "k-rm-cap.result.json"],
    ["solve", *_KNAP, *_ASD, "--method", "rm-asd", "--threads", "2",
     "--out", "k-rm-2.result.json"],
    ["solve", *_KNAP, *_MOD_EE, "--method", "rm-asd", "--out", "k-bad.result.json"],
    ["solve", *_ORDER, "--risk", "neutral", "--out", "m-neutral.result.json"],
    ["solve", *_ORDER, "--risk", "asd", "--rho", "0.9", "--collapse-mean-row",
     "--out", "m-asd.result.json"],
    ["simulate", "--in", "m.sp2.json", "--plan", "m-neutral.result.json", "--reps", "3",
     "--seed", "2", "--out", "m-neutral.sim.csv"],
    ["simulate", "--in", "m.sp2.json", "--plan", "m-asd.result.json", "--reps", "3",
     "--seed", "2", "--out", "m-asd.sim.csv"],
    ["simulate", "--in", "m.sp2.json", "--plan", "m-asd.result.json", "--zero-demand",
     "--label", "idle", "--out", "m-idle.sim.csv"],
    ["report", "--inputs", "m-neutral.sim.csv", "m-asd.sim.csv", "m-idle.sim.csv",
     "--out", "summary.csv", "--plots", "plots"],
    ["rerun", "--manifest", "m.sp2.json.manifest.json", "--out-dir", "replay"],
    ["rerun", "--manifest", "k-asd.result.json.manifest.json", "--out-dir", "replay"],
    ["rerun", "--manifest", "k-rm.result.json.manifest.json", "--out-dir", "replay"],
    ["rerun", "--manifest", "summary.csv.manifest.json", "--out-dir", "replay"],
    ["solve", "--in", "no-recourse.sp2.json", "--risk", "mod-ee", "--rho", "0.5",
     "--eta", "0", "--method", "lshaped", "--out", "no-recourse.result.json"],
    ["solve", "--in", "half.sp2.json", "--risk", "neutral", "--out",
     "half.result.json"],
    ["report", "--inputs", "m-neutral.sim.csv", "m-neutral.sim.csv",
     "--out", "twice.csv"],
    ["report", "--inputs", "bad.sim.csv", "--out", "bad-summary.csv"],
    ["report", "--inputs", "long.sim.csv", "--out", "long-summary.csv"],
    ["report", "--inputs", "clash.sim.csv", "--out", "clash-summary.csv"],
]
# name -> scenario probability of the two-scenario model x + 2y = 1
# (x, y binary): x = 0 has no binary recourse, though its relaxation does.
FAULT_FILES = {"no-recourse.sp2.json": 0.5, "half.sp2.json": 0.25}
# simulation tables that report refuses, by the rows after the header: a
# non-numeric cell, a row longer than the header, and one label whose rows
# carry two plan costs
FAULT_TABLES = {"bad.sim.csv": "neutral,0,1,2.0,abc,4.0\n",
                "long.sim.csv": "A,1,3,4.0,30.0,500.0,999\n",
                "clash.sim.csv": "A,0,1,2.0,10.0,100.0\nA,1,3,4.0,30.0,500.0\n"}
MANIFEST_FIELDS = ("config", "inputs", "outputs", "checksums", "exit_status")


def _write_fault_files():
    from riskshed import fileio
    from riskshed.model import Scenario, TwoStageProblem

    for name, p in FAULT_FILES.items():
        scenarios = [Scenario(probability=0.5, cost=[q], technology=[[1.0], [-1.0]],
                              recourse=[[2.0], [-2.0]], rhs=[1.0, -1.0])
                     for q in (-1.0, -3.0)]
        fileio.save_problem(name, problem=TwoStageProblem(
            first_stage_cost=[5.0], first_stage_matrix=[[0.0]],
            first_stage_rhs=[-1.0], scenarios=scenarios))
        with open(name) as fh:
            doc = json.load(fh)
        for scenario in doc["payload"]["scenarios"]:
            scenario["probability"] = p
        doc["checksum"] = fileio._checksum(doc)
        fileio._write_json(name, doc)
    for name, rows in FAULT_TABLES.items():
        with open(name, "w") as fh:
            fh.write(",".join(fileio.SIMULATION_FIELDS) + "\n" + rows)


def cli_dump(path):
    from riskshed import cli

    path = os.path.abspath(path)
    steps, files = [], {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            _write_fault_files()
            for argv in CLI_SCRIPT:
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    try:
                        code = cli.main(argv)
                    except Exception as exc:
                        code = f"raised {type(exc).__name__}"
                steps.append({"argv": argv, "exit": code, "stdout": printed.getvalue()})
            for root, _, names in os.walk("."):
                for name in names:
                    rel = os.path.relpath(os.path.join(root, name))
                    if rel.endswith(cli.MANIFEST_SUFFIX):
                        doc = cli.load_manifest(rel)
                        files[rel] = {k: doc[k] for k in MANIFEST_FIELDS}
                    else:
                        with open(rel, "rb") as fh:
                            files[rel] = hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(home)
    with open(path, "w") as fh:
        json.dump({"steps": steps, "files": files}, fh, indent=1, sort_keys=True)
    print(f"{len(steps)} steps, {len(files)} files in "
          f"{time.perf_counter() - start:.1f} s -> {path}")


def cli_compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    listed = 0
    for k, (sa, sb) in enumerate(zip(a["steps"], b["steps"])):
        found = [key for key in ("argv", "exit", "stdout") if sa[key] != sb[key]]
        if found:
            listed += 1
            print(f"step {k} ({' '.join(sa['argv'][:2])}): {', '.join(found)} differ")
    if len(a["steps"]) != len(b["steps"]):
        listed += 1
        print(f"step counts differ: {len(a['steps'])} != {len(b['steps'])}")
    for name in sorted(a["files"].keys() | b["files"].keys()):
        fa, fb = a["files"].get(name), b["files"].get(name)
        if fa is None or fb is None:
            listed += 1
            print(f"{name}: only in {path_a if fb is None else path_b}")
        elif isinstance(fa, dict) and isinstance(fb, dict):
            found = [key for key in MANIFEST_FIELDS if fa[key] != fb[key]]
            if found:
                listed += 1
                print(f"{name}: manifest {', '.join(found)} differ")
        elif fa != fb:
            listed += 1
            print(f"{name}: bytes differ")
    print(f"{len(a['steps'])} steps, {len(a['files'])} files: "
          + (f"{listed} differences" if listed else "identical"))
    return 1 if listed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) >= 4:
        sys.exit(compare(sys.argv[2], sys.argv[3], sys.argv[4:]))
    elif sys.argv[1:2] == ["dep-dump"] and len(sys.argv) in (3, 4):
        dep_dump(sys.argv[2], int(sys.argv[3]) if len(sys.argv) == 4 else 0)
    elif sys.argv[1:2] == ["dep-compare"] and len(sys.argv) == 4:
        sys.exit(dep_compare(sys.argv[2], sys.argv[3]))
    elif sys.argv[1:2] == ["cli-dump"] and len(sys.argv) == 3:
        cli_dump(sys.argv[2])
    elif sys.argv[1:2] == ["cli-compare"] and len(sys.argv) == 4:
        sys.exit(cli_compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
