"""Audit decomposition cuts against the true recourse surface.

Enumerates every feasible binary first stage, computes the exact relaxed
recourse value, and checks each cut from a converged decomposition run
lies below the surface everywhere.  A deliberately forged cut is then
injected to show the audit catching it.  Finally the mixed excess-mean
cuts from a bounding run are audited: those support the mean-floored
scenario aggregate rather than the plain expectation, so positive
overshoot against this audit's reference is expected and is archived in
docs/cut_audit_findings.md.  Report-only tooling: the audit never edits
the pool.
"""
import numpy as np

from riskshed.asd_bounds import AsdBoundsConfig, rm_asd_solve
from riskshed.backend import ScipyBackend
from riskshed.knapsack import KnapsackGenSpec, generate_knapsack
from riskshed.lshaped import OptimalityCut, lshaped_solve
from riskshed.model import RiskMeasure, RiskSpec
from riskshed.oracle import brute_force_optimum, cut_validity_audit

backend = ScipyBackend()
problem = generate_knapsack(KnapsackGenSpec(6, 6, 4, seed=9, m1=3, m2=4))
rho, eta = 0.3, -1200.0

res = lshaped_solve(problem, rho, eta, backend=backend, tol=1e-7,
                    max_iters=60)
print(f"decomposition: {res.status}, {len(res.cuts)} cuts, "
      f"master={res.master_objective:.4f}")

report = cut_validity_audit(problem, rho, eta, list(res.cuts.cuts),
                            backend=backend)
print(f"audit over {report['points']} feasible points: "
      f"{report['violations']} violations, "
      f"max overshoot {report['max_violation']:.2e}")

forged = OptimalityCut(coef=np.zeros(problem.n1), rhs_base=1e5,
                       eta_coef=0.0, origin="forged", scenario=None)
report = cut_validity_audit(problem, rho, eta,
                            list(res.cuts.cuts) + [forged], backend=backend)
print(f"with one forged cut injected: {report['violations']} violations, "
      f"worst origin '{report['worst_origin']}'")

# Mixed excess-mean cuts bound a different surface: the probability-weighted
# aggregate with every below-mean scenario floored at the mean.  Audited
# against the plain expectation they overshoot wherever that floor binds.
# On this draw the driver's bounds still straddle the optimum; on 5 of 90
# service-style runs the lower bound passes it (docs/cut_audit_findings.md).
state = rm_asd_solve(problem, AsdBoundsConfig(rho=0.5, max_iters=12,
                                              backend=backend))
mixed = [c for c in state.pool.cuts if c.origin == "excess-mean"]
classic = [c for c in state.pool.cuts if c.origin != "excess-mean"]
rep_mixed = cut_validity_audit(problem, rho=0.5, eta=state.eta, cuts=mixed,
                               backend=backend)
rep_classic = cut_validity_audit(problem, rho=0.5, eta=state.eta, cuts=classic,
                                 backend=backend)
oracle = brute_force_optimum(
    problem, RiskSpec(RiskMeasure.ABSOLUTE_SEMIDEVIATION, rho=0.5),
    backend=backend)
print(f"bounding run ({state.status}): {len(mixed)} excess-mean cuts "
      f"overshoot the plain-expectation reference by up to "
      f"{rep_mixed['max_violation']:.2e}; "
      f"{len(classic)} classic cuts by {rep_classic['max_violation']:.2e}")
print(f"outer bounds on this draw: LB {state.lower:.4f} <= "
      f"semideviation optimum {oracle.objective:.4f} <= UB {state.upper:.4f}")
