"""Print the extensive-form dimension catalog for the knapsack family.

Eight (n1, n2, scenarios) combinations at m1=10, m2=20.  Dimensions come
from the closed-form audit and are cross-checked here against one
materialized build per row.
"""
import numpy as np

from riskshed.dep import build_dep_expectation
from riskshed.knapsack import KnapsackGenSpec, audit_dimensions, generate_knapsack

SIZES = [(10, 20, 50), (10, 20, 100), (20, 30, 50), (20, 30, 100),
         (30, 40, 50), (30, 40, 100), (40, 50, 50), (40, 50, 100)]

print(f"{'instance':>14} {'bvars':>7} {'constr':>7} {'nonzeros':>9}")
for n1, n2, S in SIZES:
    problem = generate_knapsack(KnapsackGenSpec(n1, n2, S, seed=1))
    nvars, ncons, nnz = audit_dimensions(problem)
    lp = build_dep_expectation(problem).program.lp
    assert (lp.num_vars, lp.num_rows, np.count_nonzero(lp.lhs)) == (nvars, ncons, nnz)
    print(f"{problem.name:>14} {nvars:>7} {ncons:>7} {nnz:>9}")
