"""One workload in a fresh process; started by run.py, never by hand.

Set-up (interpreter start, imports, input generation) is timed from the
parent's spawn time to the first timed call, on the system-wide monotonic
clock.  The batch then runs in whole passes for as long as another pass,
as long as the longest so far, still ends within ``--seconds`` (at least
one pass; a traced run makes exactly one).  Each instance of the batch is
timed in every pass.
Checks run after the timed region and never enter a timed metric.  The
result goes to ``--out`` as JSON, because fd 1 also carries solver output.
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup = workload.setup(args.seed, args.workdir)
    first_call = time.monotonic()
    result = {"setup_s": first_call - args.spawned_at, **setup}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    passes, instance_times, outcomes = [], [], []
    cpu = _cpu_s()
    while True:
        pass_dir = args.workdir / f"pass{len(passes)}"
        pass_dir.mkdir()
        start = time.perf_counter()
        outcome, times = workload.run_pass(tracer, pass_dir)
        passes.append(time.perf_counter() - start)
        outcomes.append(outcome)
        instance_times.append(times)
        if (tracer is not None
                or time.monotonic() - first_call + max(passes) > args.seconds):
            break
    result["cpu_s"] = _cpu_s() - cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["passes"] = passes
    result["instance_times"] = instance_times
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(args.workdir.parent / f"trace-{args.workload}-{args.seed}.json")

    start = time.perf_counter()
    failures = []
    for outcome in outcomes:
        found, summary = workload.check(outcome)
        failures.append(found)
    result["check_s"] = time.perf_counter() - start
    result.update(summary)
    result["attempted"] = workload.ops * len(passes)
    result["failed"] = sum(len(found) for found in failures)
    result["failures"] = failures
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
