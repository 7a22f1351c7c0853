"""Reference binary MIP solver: LP-based branch and bound.

Best-bound node selection, branching on the most fractional binary (ties to
the lowest index), deterministic heap ordering.  There is no presolve and no
cut generation; bounds come straight from the node LP relaxations, which is
adequate at desk scale.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .program import (
    DEFAULT_NODE_CAP, INFEASIBLE, NODE_CAP, OPTIMAL, UNBOUNDED, LinearProgram,
    MipSolution, MixedBinaryProgram,
)
from . import simplex

INT_TOL = 1e-7          # binary values within this of {0,1} count as integral
PRUNE_SLACK = 1e-10


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    fixed: dict = None

    def __post_init__(self):
        if self.fixed is None:
            self.fixed = {}


def _node_lp(base: LinearProgram, binary_idx, fixed):
    lower = base.lower.copy()
    upper = base.upper.copy()
    lower[binary_idx] = np.maximum(lower[binary_idx], 0.0)
    upper[binary_idx] = np.minimum(upper[binary_idx], 1.0)
    for j, v in fixed.items():
        lower[j] = upper[j] = float(v)
    return LinearProgram(
        objective=base.objective, lhs=base.lhs, senses=base.senses,
        rhs=base.rhs, lower=lower, upper=upper,
    )


def solve_mip(mip: MixedBinaryProgram, gap_tol: float = 0.0,
              node_cap: int = DEFAULT_NODE_CAP,
              lp_solver=simplex.solve_lp) -> MipSolution:
    """Minimize over binaries flagged in the program; continuous vars stay free."""
    lp = mip.lp
    binary_idx = np.flatnonzero(mip.binary)
    total_iters = 0

    if binary_idx.size == 0:
        sol = lp_solver(lp)
        return MipSolution(
            status=sol.status, objective=sol.objective, x=sol.x,
            bound=sol.objective, nodes=1, iterations=sol.iterations,
        )

    incumbent = None
    incumbent_obj = np.inf
    seq = 0
    heap = [_Node(bound=-np.inf, seq=seq, fixed={})]
    gap_pruned = []     # LP values of subtrees closed by the gap, not by proof
    nodes = 0
    status = OPTIMAL

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - PRUNE_SLACK:
            continue
        if nodes >= node_cap:
            status = NODE_CAP
            heapq.heappush(heap, node)   # keep it for the bound computation
            break
        nodes += 1
        sol = lp_solver(_node_lp(lp, binary_idx, node.fixed))
        total_iters += sol.iterations
        if sol.status == INFEASIBLE:
            continue
        if sol.status == UNBOUNDED:
            return MipSolution(status=UNBOUNDED, nodes=nodes, iterations=total_iters)
        value = sol.objective
        if value >= incumbent_obj - PRUNE_SLACK:
            continue
        frac = np.abs(sol.x[binary_idx] - np.round(sol.x[binary_idx]))
        worst = int(np.argmax(np.minimum(frac, 1.0)))  # most fractional, lowest index on ties
        if frac[worst] <= INT_TOL:
            x = sol.x.copy()
            x[binary_idx] = np.round(x[binary_idx])
            obj = float(lp.objective @ x)
            if obj < incumbent_obj - 1e-12:
                incumbent, incumbent_obj = x, obj
            continue
        branch_var = int(binary_idx[worst])
        if incumbent is not None and gap_tol > 0:
            if incumbent_obj - value <= gap_tol * max(1.0, abs(incumbent_obj)):
                gap_pruned.append(value)
                continue
        for v in (0, 1):
            seq += 1
            child = dict(node.fixed)
            child[branch_var] = v
            heapq.heappush(heap, _Node(bound=value, seq=seq, fixed=child))

    bound = min([nd.bound for nd in heap] + gap_pruned + [incumbent_obj])
    if status == NODE_CAP:
        return MipSolution(status=NODE_CAP, objective=(None if incumbent is None else incumbent_obj),
                           x=incumbent, bound=(None if bound == -np.inf else float(bound)),
                           nodes=nodes, iterations=total_iters)
    if incumbent is None:
        return MipSolution(status=INFEASIBLE, nodes=nodes, iterations=total_iters)
    return MipSolution(status=OPTIMAL, objective=incumbent_obj, x=incumbent,
                       bound=float(bound), nodes=nodes, iterations=total_iters)
