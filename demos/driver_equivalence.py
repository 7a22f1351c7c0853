"""Record or compare the bounding driver's outcome on the criterion-4 batch,
or the semideviation extensive form's optimum on two batches.

    PYTHONPATH=<tree A>/src python demos/driver_equivalence.py dump a.json
    PYTHONPATH=<tree B>/src python demos/driver_equivalence.py dump b.json
    python demos/driver_equivalence.py compare a.json b.json

``dump`` runs ``rm_asd_solve`` (rho 0.5, 15 iterations, scipy backend) on
the twenty K.6.6.4 instances of acceptance criterion 4 (seeds 0-19, m1=3,
m2=4) and writes, per instance, the status, both bounds, ``x_best``, the
final target eta, every history column, the backend's solve counters and
the pool size.  Floats are stored with ``float.hex``, so ``compare``
checks them bit for bit.  ``compare`` reports every field that differs,
and the two sides' counters and pool sizes.  Extra arguments name history columns to leave out, such as
``wall_time``, which older trees wrote.  The exit status is 1 when
anything compared differs.

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
"""
import json
import sys
import time

import numpy as np

SEEDS = range(20)
DIGEST_ETA = 12.5       # any nonzero target: it only has to reach the rhs


def _hex(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [_hex(v) for v in value.tolist()]
    return value


def dump(path):
    from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve
    from riskshed.backend import ScipyBackend
    from riskshed.knapsack import KnapsackGenSpec, generate_knapsack

    records = []
    start = time.perf_counter()
    for seed in SEEDS:
        problem = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=seed, m1=3, m2=4))
        backend = ScipyBackend()
        state = rm_asd_solve(problem, AsdBoundsConfig(rho=0.5, max_iters=15,
                                                      backend=backend))
        records.append({
            "seed": seed, "status": state.status, "lower": _hex(state.lower),
            "upper": _hex(state.upper), "x_best": _hex(state.x_best),
            "eta": _hex(state.eta),
            "history": [{k: _hex(v) for k, v in row.items()} for row in state.history],
            "counters": backend.stats.as_dict(), "pool": len(state.pool)})
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"{len(records)} instances in {time.perf_counter() - start:.1f} s -> {path}")


def compare(path_a, path_b, ignore=()):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    skip = set(ignore)
    differ = 0
    for ra, rb in zip(a, b):
        found = [k for k in ("status", "lower", "upper", "x_best", "eta") if ra[k] != rb[k]]
        if len(ra["history"]) != len(rb["history"]):
            found.append(f"history length {len(ra['history'])} != {len(rb['history'])}")
        for i, (ha, hb) in enumerate(zip(ra["history"], rb["history"])):
            found += [f"history[{i}].{k}" for k in ha if k not in skip and ha[k] != hb.get(k)]
        ca, cb = ra["counters"], rb["counters"]
        print(f"seed {ra['seed']:2d} {ra['status']:<13} "
              f"lp {ca['lp_solves']:4d} -> {cb['lp_solves']:3d}  "
              f"mip {ca['mip_solves']:3d} -> {cb['mip_solves']:3d}  "
              f"cuts {ra['pool']:3d} -> {rb['pool']:2d}  "
              + ("identical" if not found else "DIFFERS: " + ", ".join(found)))
        differ += bool(found)
    if len(a) != len(b):
        print(f"instance counts differ: {len(a)} != {len(b)}")
        differ += 1
    print(f"{len(a) - differ}/{len(a)} instances identical"
          + (f" (history {', '.join(sorted(skip))} not compared)" if skip else ""))
    return 1 if differ else 0


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


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) >= 4:
        sys.exit(compare(sys.argv[2], sys.argv[3], sys.argv[4:]))
    elif sys.argv[1:2] == ["dep-dump"] and len(sys.argv) in (3, 4):
        dep_dump(sys.argv[2], int(sys.argv[3]) if len(sys.argv) == 4 else 0)
    elif sys.argv[1:2] == ["dep-compare"] and len(sys.argv) == 4:
        sys.exit(dep_compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
