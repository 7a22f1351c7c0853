"""Record or compare the bounding driver's outcome on the criterion-4 batch.

    PYTHONPATH=<tree A>/src python demos/driver_equivalence.py dump a.json
    PYTHONPATH=<tree B>/src python demos/driver_equivalence.py dump b.json
    python demos/driver_equivalence.py compare a.json b.json

``dump`` runs ``rm_asd_solve`` (rho 0.5, 15 iterations, scipy backend) on
the twenty K.6.6.4 instances of acceptance criterion 4 (seeds 0-19, m1=3,
m2=4) and writes, per instance, the status, both bounds, ``x_best``, the
final target eta, every history column, the backend's solve counters and
the pool size.  Floats are stored with ``float.hex``, so ``compare``
checks them bit for bit.  ``compare`` reports every field that differs,
except the history's ``wall_time``, and the two sides' counters and pool
sizes.  The exit status is 1 when anything compared differs.
"""
import json
import sys
import time

import numpy as np

SEEDS = range(20)
UNCOMPARED = ("wall_time",)


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
    skip = set(UNCOMPARED) | set(ignore)
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


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) >= 4:
        sys.exit(compare(sys.argv[2], sys.argv[3], sys.argv[4:]))
    else:
        sys.exit(__doc__)
