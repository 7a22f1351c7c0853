"""Outside-in tracing of riskshed: spans around public functions.

Nothing in the package is edited.  ``Tracer.install`` rebinds module and
class attributes (``riskshed.model.evaluate_scenario_cost``,
``riskshed.asd_bounds.solve_subproblems``, ``ScipyBackend.solve_mip``, ...)
to thin wrappers that record a span (name, start, end, parent) and a few
counts read off arguments and return values; ``uninstall`` puts the
originals back.  Spans stay in memory until ``dump``.

A name is rebound where the caller looks it up: ``asd_bounds`` imported
``solve_subproblems`` into its own namespace, so both
``riskshed.lshaped.solve_subproblems`` and
``riskshed.asd_bounds.solve_subproblems`` are wrapped.

Backend calls are attributed to a caller by the identity of the program
they solve: the builders that produce scenario programs, subproblem LPs,
masters and extensive forms are wrapped to tag what they return.
"""
from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np

CALLERS = ("scenario_eval", "subproblem", "master", "dep")


class _Proxy:
    """Stands in for ``scipy.optimize`` inside ``riskshed.backend.scipy_backend``."""

    def __init__(self, real, overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, operation]
        self.stack = []
        self.counts = Counter()
        self.op = 0            # index of the workload operation running now
        self._patched = []
        self._tags = {}        # id(program) -> (weakref, caller)
        self._distinct = set()
        self._pool_keys = {}   # id(pool) -> (weakref, set of cut keys)
        self._snapshots = []   # (eta, x_hat, lower, upper) per driver iteration
        self._dep = {"peak_mb": 0.0, "nnz": 0, "dense_mb": 0.0}

    # -- spans ----------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _spanned(self, name, fn):
        return lambda *args, **kwargs: self._call(name, fn, args, kwargs)

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = self._call(name, original, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._set(owner, attr, wrapper, original)

    def _set(self, owner, attr, value, original):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- counting hooks -------------------------------------------------------

    def _tag(self, program, caller):
        key = id(program)
        self._tags[key] = (weakref.ref(program, lambda _r: self._tags.pop(key, None)),
                           caller)

    def _caller(self, program):
        entry = self._tags.get(id(program))
        if entry is not None and entry[0]() is program:
            return entry[1]
        return "other"

    def _backend_call(self, kind, original):
        def call(backend, program, *args, **kwargs):
            sol = self._call(f"backend.{kind}.{self._caller(program)}", original,
                             (backend, program) + args, kwargs)
            self.counts["backend.nodes"] += int(getattr(sol, "nodes", 0) or 0)
            self.counts["backend.lp_iterations"] += int(sol.iterations or 0)
            return sol
        return call

    def _scenario_eval(self, problem, x, index, backend=None, relaxed=False):
        key = (self.op, np.asarray(x, dtype=float).tobytes(), int(index), bool(relaxed))
        self._distinct.add(key)
        self.counts["model.scenario_evals"] += 1

    def _cut_added(self, pool, cut):
        key = id(pool)
        entry = self._pool_keys.get(key)
        if entry is None or entry[0]() is not pool:
            entry = (weakref.ref(pool), set())
            self._pool_keys[key] = entry
        cut_key = (np.asarray(cut.coef, dtype=float).tobytes(), float(cut.rhs_base),
                   float(cut.eta_coef), cut.scenario)
        self.counts["lshaped.cuts_added"] += 1
        if cut_key in entry[1]:
            self.counts["lshaped.duplicate_cuts"] += 1
        entry[1].add(cut_key)

    def _snapshot(self, state):
        self._snapshots.append((float(state.eta), np.asarray(state.x_hat).tobytes(),
                                float(state.lower), float(state.upper)))

    def _driver_done(self, state, problem, config):
        self._snapshot(state)
        snaps = self._snapshots
        self.counts["asd_bounds.stalled_iterations"] += sum(
            1 for a, b in zip(snaps, snaps[1:]) if a == b)
        self.counts["asd_bounds.iterations"] += len(state.history) - 1
        self.counts[f"asd_bounds.{state.status}"] += 1

    def _dep_build(self, name, original):
        def build(*args, **kwargs):
            tracemalloc.start()
            try:
                art = self._call(name, original, args, kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lp = art.program.lp
            self._dep["peak_mb"] = max(self._dep["peak_mb"], peak / 1e6)
            self._dep["nnz"] = max(self._dep["nnz"], int(np.count_nonzero(lp.lhs)))
            self._dep["dense_mb"] = max(self._dep["dense_mb"],
                                        lp.num_rows * lp.num_vars * 8 / 1e6)
            self._tag(art.program, "dep")
            return art
        return build

    def _bytes_written(self, result, path, *args, **kwargs):
        # write_simulation_csv writes through write_history_csv: count once.
        if not any(self.spans[i][0] == "fileio.save" for i in self.stack):
            self.counts["fileio.bytes_written"] += os.path.getsize(path)

    # -- installation ---------------------------------------------------------

    def install(self):
        import riskshed.asd_bounds as asd_bounds
        import riskshed.cli as cli
        import riskshed.fileio as fileio
        import riskshed.lshaped as lshaped
        import riskshed.model as model
        from riskshed.backend import ScipyBackend, scipy_backend

        real = scipy_backend.sciopt
        proxy = _Proxy(real, {name: self._spanned("highs", getattr(real, name))
                              for name in ("milp", "linprog")})
        self._set(scipy_backend, "sciopt", proxy, real)
        for kind, attr in (("mip", "solve_mip"), ("lp", "solve_lp")):
            original = getattr(ScipyBackend, attr)
            self._set(ScipyBackend, attr, self._backend_call(kind, original), original)

        tag = lambda caller, pick: (lambda result, *a, **k: self._tag(pick(result), caller))
        self._wrap(model, "second_stage_program", "model.build_program",
                   after=tag("scenario_eval", lambda r: r))
        self._wrap(model, "evaluate_scenario_cost", "model.eval",
                   before=self._scenario_eval)
        self._wrap(lshaped, "build_subproblem_lp", "lshaped.build_subproblem",
                   after=tag("subproblem", lambda r: r[0]))
        for module in (lshaped, asd_bounds):
            self._wrap(module, "build_master", "lshaped.master_build",
                       after=tag("master", lambda r: r[0]))
            self._wrap(module, "lshaped_solve", "lshaped.solve",
                       after=lambda r, *a, **k: self.counts.update(
                           {"lshaped.iterations": r.iterations}))
        self._wrap(lshaped, "solve_subproblems", "lshaped.solve_subproblems")
        self._wrap(asd_bounds, "solve_subproblems", "asd_bounds.solve_subproblems")
        self._wrap(asd_bounds, "cuts_from_duals", "asd_bounds.cuts_from_duals")
        self._wrap(asd_bounds, "excess_mean_cut", "asd_bounds.excess_mean_cut")
        self._wrap(lshaped.CutPool, "add", "lshaped.cut_add", before=self._cut_added)
        self._wrap(asd_bounds, "initialize", "asd_bounds.init")
        self._wrap(asd_bounds, "adjust_target", "asd_bounds.adjust_target",
                   before=lambda state, problem: self._snapshot(state))
        self._wrap(asd_bounds, "rm_asd_solve", "asd_bounds.solve",
                   before=lambda *a, **k: self._snapshots.clear(),
                   after=self._driver_done)

        for module, names in ((asd_bounds, ("build_dep_expectation",)),
                              (cli, ("build_dep_expectation", "build_dep_expected_excess",
                                     "build_dep_modified_expected_excess",
                                     "build_dep_absolute_semideviation"))):
            for attr in names:
                original = getattr(module, attr)
                self._set(module, attr, self._dep_build("dep.build", original), original)

        self._wrap(fileio, "build_mssop_two_stage", "mssop.build")
        self._wrap(cli, "build_mssop_two_stage", "mssop.build")
        self._wrap(cli, "simulate_policy", "mssop.simulate",
                   after=lambda r, *a, **k: self.counts.update(
                       {"mssop.sim_reps": r.replications}))
        for attr in ("load_problem", "load_result"):
            self._wrap(fileio, attr, "fileio.load")
        for attr in ("save_problem", "save_result", "write_history_csv",
                     "write_simulation_csv"):
            self._wrap(fileio, attr, "fileio.save", after=self._bytes_written)
        for sub in ("solve", "simulate", "report"):
            self._wrap(cli.RUNNERS, sub, f"cli.{sub}")
        return self

    # -- results --------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "operation"],
                       "spans": self.spans}, fh)

    def metrics(self):
        """Per-layer metrics from the spans and counts recorded so far."""
        spans = self.spans
        durations = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, durations):
            if s[3] >= 0:
                child_time[s[3]] += d

        def calls(pred):
            return sum(1 for s in spans if pred(s[0]))

        def inclusive(pred):
            return sum(d for s, d in zip(spans, durations) if pred(s[0]))

        def outermost(pred):
            # (calls, seconds) of matching spans not nested in another match
            n, total = 0, 0.0
            for s, d in zip(spans, durations):
                if not pred(s[0]):
                    continue
                parent = s[3]
                while parent >= 0 and not pred(spans[parent][0]):
                    parent = spans[parent][3]
                if parent < 0:
                    n, total = n + 1, total + d
            return n, total

        def named(*names):
            return lambda n: n in names

        def prefix(p):
            return lambda n: n.startswith(p)

        c = self.counts
        m = {
            "backend.mip_calls": calls(prefix("backend.mip.")),
            "backend.lp_calls": calls(prefix("backend.lp.")),
            "backend.mip_s": inclusive(prefix("backend.mip.")),
            "backend.lp_s": inclusive(prefix("backend.lp.")),
            "backend.highs_s": inclusive(named("highs")),
            "backend.adapter_s": sum(d - ct for s, d, ct in zip(spans, durations, child_time)
                                     if s[0].startswith("backend.")),
            "backend.nodes": c["backend.nodes"],
            "backend.lp_iterations": c["backend.lp_iterations"],
        }
        for caller in CALLERS + ("other",):
            pred = lambda n, caller=caller: (n.startswith("backend.")
                                             and n.endswith("." + caller))
            m[f"backend.{caller}_calls"] = calls(pred)
            m[f"backend.{caller}_s"] = inclusive(pred)

        evals = c["model.scenario_evals"]
        m.update({
            "model.scenario_evals": evals,
            "model.scenario_evals_distinct": len(self._distinct),
            "model.repeat_share": 1.0 - len(self._distinct) / evals if evals else 0.0,
            "model.eval_s": inclusive(named("model.eval")),
        })
        subproblem_sites = named("lshaped.solve_subproblems", "asd_bounds.solve_subproblems")
        added = c["lshaped.cuts_added"]
        m.update({
            "lshaped.iterations": c["lshaped.iterations"],
            "lshaped.subproblem_rounds": calls(subproblem_sites),
            "lshaped.subproblem_s": outermost(subproblem_sites)[1],
            "lshaped.master_builds": calls(named("lshaped.master_build")),
            "lshaped.master_build_s": inclusive(named("lshaped.master_build")),
            "lshaped.cuts_added": added,
            "lshaped.duplicate_cut_share": c["lshaped.duplicate_cuts"] / added if added else 0.0,
        })
        m.update({
            "asd_bounds.init_s": inclusive(named("asd_bounds.init")),
            "asd_bounds.iterations": c["asd_bounds.iterations"],
            "asd_bounds.stalled_iterations": c["asd_bounds.stalled_iterations"],
            "asd_bounds.cut_s": outermost(named("asd_bounds.excess_mean_cut",
                                                "asd_bounds.solve_subproblems",
                                                "asd_bounds.cuts_from_duals"))[1],
            "asd_bounds.converged": c["asd_bounds.converged"],
            "asd_bounds.iteration_cap": c["asd_bounds.iteration_cap"],
        })
        m.update({
            "dep.builds": calls(named("dep.build")),
            "dep.build_s": inclusive(named("dep.build")),
            "dep.peak_mb": self._dep["peak_mb"],
            "dep.nnz": self._dep["nnz"],
            "dep.dense_mb": self._dep["dense_mb"],
            "mssop.builds": calls(named("mssop.build")),
            "mssop.build_s": inclusive(named("mssop.build")),
            "mssop.simulate_s": inclusive(named("mssop.simulate")),
            "mssop.sim_reps": c["mssop.sim_reps"],
            "fileio.loads": calls(named("fileio.load")),
            "fileio.load_s": inclusive(named("fileio.load")),
            "fileio.saves": outermost(named("fileio.save"))[0],
            "fileio.save_s": outermost(named("fileio.save"))[1],
            "fileio.bytes_written": c["fileio.bytes_written"],
            "cli.solve_s": inclusive(named("cli.solve")),
            "cli.simulate_s": inclusive(named("cli.simulate")),
            "cli.report_s": inclusive(named("cli.report")),
        })
        return m
