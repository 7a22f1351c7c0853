"""Multi-item single-source ordering with piecewise freight.

First stage plans order quantities x_it with setup flags y_it and a
freight charge modeled on a seven-point (weight, cost) schedule through
segment flags q_jt and convex weights z_jt.  The second stage carries
inventory v_it and lost sales u_it per scenario under mass balance.

Canonical two-stage mapping: every row is >= (equalities are stored as a
+/- pair), first-stage variables are laid out [x | y | q | z] row-major in
(item, period), second-stage per scenario [v | u].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import get_backend, optimal
from .dep import build_dep_absolute_semideviation, build_dep_expectation
from .model import Scenario, TwoStageProblem, ValidationError

# Transportation schedule: duplicated weights encode the cost jumps.
FREIGHT_COST = (0.0, 1000.0, 1000.0, 1500.0, 1500.0, 2200.0, 2200.0)
BREAKPOINT_WEIGHT = (0.0, 0.0, 17500.0, 17500.0, 35000.0, 35000.0, 70000.0)
PENALTY_RANGE = (150.0, 300.0)  # generated lost-sales penalty per unit
# MssopInstance's array fields, in file payload order; those before
# "probabilities" must be nonnegative.
ARRAY_FIELDS = ("setup_cost", "freight_cost", "breakpoint_weight",
                "unit_weight", "holding_cost", "lost_sales_penalty",
                "initial_inventory", "demand", "probabilities",
                "demand_mean", "demand_std")


@dataclass
class MssopInstance:
    setup_cost: np.ndarray          # k_i
    freight_cost: np.ndarray        # f_j
    breakpoint_weight: np.ndarray   # m_j
    unit_weight: np.ndarray         # w_i
    holding_cost: np.ndarray        # h_i
    lost_sales_penalty: np.ndarray  # p_i
    initial_inventory: np.ndarray   # o_i
    demand: np.ndarray              # d[scenario, item, period], integral
    probabilities: np.ndarray
    demand_mean: np.ndarray         # sampler parameters, kept for simulation
    demand_std: np.ndarray
    name: str = ""

    def __post_init__(self):
        for f in ARRAY_FIELDS:
            setattr(self, f, np.asarray(getattr(self, f), dtype=float))
        if self.demand.ndim != 3:
            raise ValidationError("demand must be scenario x item x period")
        if np.any(np.diff(self.breakpoint_weight) < 0):
            raise ValidationError("breakpoint weights must be nondecreasing")
        if np.any(np.diff(self.freight_cost) < 0):
            raise ValidationError("freight costs must be nondecreasing")
        for f in ARRAY_FIELDS[:ARRAY_FIELDS.index("probabilities")]:
            if np.any(getattr(self, f) < 0):
                raise ValidationError(f"{f} must be nonnegative")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValidationError("scenario probabilities must sum to one")

    @property
    def num_scenarios(self):
        return self.demand.shape[0]

    @property
    def num_items(self):
        return self.demand.shape[1]

    @property
    def num_periods(self):
        return self.demand.shape[2]

    @property
    def num_breakpoints(self):
        return self.freight_cost.size

    def big_m(self):
        """M_it = remaining worst-case demand from period t on."""
        worst = self.demand.max(axis=0)                  # item x period
        return worst[:, ::-1].cumsum(axis=1)[:, ::-1]


def generate_mssop_instance(num_items, num_periods, num_scenarios,
                            lumpy_fraction=0.2, seed=0) -> MssopInstance:
    """Random instance with N(100,10) demand, a lumpy cell subset at
    N(150,20), the fixed freight schedule and no initial inventory."""
    if min(num_items, num_periods, num_scenarios) < 1:
        raise ValidationError("items, periods and scenarios must each be at least 1")
    if not 0.0 <= lumpy_fraction <= 1.0:
        raise ValidationError("lumpy fraction must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    holding = rng.uniform(50.0, 100.0, num_items)
    setup = rng.uniform(500.0, 1000.0, num_items)
    weight = rng.uniform(1.0, 5.0, num_items)
    penalty = rng.uniform(*PENALTY_RANGE, num_items)

    cells = num_items * num_periods
    n_lumpy = int(round(lumpy_fraction * cells))
    lumpy = np.zeros(cells, dtype=bool)
    if n_lumpy:
        lumpy[rng.choice(cells, size=n_lumpy, replace=False)] = True
    lumpy = lumpy.reshape(num_items, num_periods)
    mean = np.where(lumpy, 150.0, 100.0)
    std = np.where(lumpy, 20.0, 10.0)

    demand = rng.normal(mean, std, (num_scenarios, num_items, num_periods))
    demand = np.rint(np.clip(demand, 0.0, None))
    return MssopInstance(
        setup_cost=setup, freight_cost=np.array(FREIGHT_COST),
        breakpoint_weight=np.array(BREAKPOINT_WEIGHT), unit_weight=weight,
        holding_cost=holding, lost_sales_penalty=penalty,
        initial_inventory=np.zeros(num_items),
        demand=demand, probabilities=np.full(num_scenarios, 1.0 / num_scenarios),
        demand_mean=mean, demand_std=std,
        name=f"M.{num_items}.{num_periods}.{num_scenarios}")


@dataclass
class ReplenishmentPlan:
    orders: np.ndarray            # x, item x period
    setups: np.ndarray            # y
    segment_weights: np.ndarray   # z

    def first_stage_cost(self, instance: MssopInstance) -> float:
        return float(instance.setup_cost @ self.setups.sum(axis=1)
                     + instance.freight_cost @ self.segment_weights.sum(axis=1))


@dataclass
class MssopModel:
    instance: MssopInstance
    problem: TwoStageProblem
    offsets: dict

    def decode_plan(self, x_first) -> ReplenishmentPlan:
        x_first = np.asarray(x_first, dtype=float)
        I, T = self.instance.num_items, self.instance.num_periods
        J = self.instance.num_breakpoints
        o = self.offsets
        return ReplenishmentPlan(
            orders=x_first[o["x"]:o["x"] + I * T].reshape(I, T),
            setups=np.rint(x_first[o["y"]:o["y"] + I * T]).reshape(I, T),
            segment_weights=x_first[o["z"]:o["z"] + J * T].reshape(J, T))


def build_mssop_two_stage(instance: MssopInstance) -> MssopModel:
    I, T = instance.num_items, instance.num_periods
    J = instance.num_breakpoints
    S = instance.num_scenarios
    IT, JT = I * T, J * T
    n1 = 2 * IT + 2 * JT
    off = {"x": 0, "y": IT, "q": 2 * IT, "z": 2 * IT + JT}
    ix = lambda i, t: off["x"] + i * T + t
    iy = lambda i, t: off["y"] + i * T + t
    iq = lambda j, t: off["q"] + j * T + t
    iz = lambda j, t: off["z"] + j * T + t

    M = instance.big_m()
    m1 = IT + T + JT + T + T
    A = np.zeros((m1, n1))
    b = np.zeros(m1)
    r = 0
    for i in range(I):                       # order only with setup charge
        for t in range(T):
            A[r, ix(i, t)] = -1.0
            A[r, iy(i, t)] = M[i, t]
            r += 1
    for t in range(T):                       # shipped weight within z capacity
        for i in range(I):
            A[r, ix(i, t)] = -instance.unit_weight[i]
        for j in range(J):
            A[r, iz(j, t)] = instance.breakpoint_weight[j]
        r += 1
    for t in range(T):                       # z only on an active segment
        for j in range(J):
            A[r, iz(j, t)] = -1.0
            if j == 0:
                A[r, iq(0, t)] = 1.0
            elif j == J - 1:
                A[r, iq(J - 2, t)] = 1.0
            else:
                A[r, iq(j - 1, t)] = 1.0
                A[r, iq(j, t)] = 1.0
            r += 1
    for t in range(T):                       # at most one convex unit of z
        for j in range(J):
            A[r, iz(j, t)] = -1.0
        b[r] = -1.0
        r += 1
    for t in range(T):                       # at most one active segment
        for j in range(J):
            A[r, iq(j, t)] = -1.0
        b[r] = -1.0
        r += 1
    assert r == m1

    c = np.zeros(n1)
    for i in range(I):
        c[off["y"] + i * T: off["y"] + (i + 1) * T] = instance.setup_cost[i]
    for j in range(J):
        c[off["z"] + j * T: off["z"] + (j + 1) * T] = instance.freight_cost[j]
    integ1 = np.zeros(n1, dtype=bool)
    integ1[off["y"]:off["y"] + IT] = True
    integ1[off["q"]:off["q"] + JT] = True

    # second stage: [v | u], balance equalities doubled into >= pairs
    n2 = 2 * IT
    m2 = 3 * IT
    iv = lambda i, t: i * T + t
    iu = lambda i, t: IT + i * T + t
    W = np.zeros((m2, n2))
    Tm = np.zeros((m2, n1))
    q2 = np.zeros(n2)
    for i in range(I):
        q2[iv(i, 0):iv(i, 0) + T] = instance.holding_cost[i]
        q2[iu(i, 0):iu(i, 0) + T] = instance.lost_sales_penalty[i]
    rr = 0
    base_rhs = np.zeros(m2)
    for i in range(I):
        for t in range(T):
            # v_it - v_{i,t-1} - u_it - x_it = o_i[t=0] - d_it
            W[rr, iv(i, t)] = 1.0
            if t > 0:
                W[rr, iv(i, t - 1)] = -1.0
            W[rr, iu(i, t)] = -1.0
            Tm[rr, ix(i, t)] = -1.0
            base_rhs[rr] = instance.initial_inventory[i] if t == 0 else 0.0
            W[rr + 1] = -W[rr]
            Tm[rr + 1] = -Tm[rr]
            base_rhs[rr + 1] = -base_rhs[rr]
            rr += 2
    cap_base = rr
    for i in range(I):
        for t in range(T):
            W[rr, iu(i, t)] = -1.0       # u <= d
            rr += 1
    assert rr == m2

    scenarios = []
    for s in range(S):
        d = instance.demand[s]
        rhs = base_rhs.copy()
        for i in range(I):
            for t in range(T):
                k = 2 * (i * T + t)
                rhs[k] -= d[i, t]
                rhs[k + 1] += d[i, t]
                rhs[cap_base + i * T + t] = -d[i, t]
        scenarios.append(Scenario(
            probability=instance.probabilities[s], cost=q2.copy(),
            technology=Tm.copy(), recourse=W.copy(), rhs=rhs,
            integrality=np.zeros(n2, dtype=bool)))
    problem = TwoStageProblem(
        first_stage_cost=c, first_stage_matrix=A, first_stage_rhs=b,
        scenarios=scenarios, first_stage_integrality=integ1,
        name=instance.name or "mssop")
    return MssopModel(instance=instance, problem=problem, offsets=off)


# Lost sales below this are solver noise in the plan, not a shortage event.
EVENT_TOL = 1e-6


@dataclass
class SimulationReport:
    label: str
    replications: int
    lost_sales_events: np.ndarray     # per replication, cells with u > EVENT_TOL
    lost_sales_quantity: np.ndarray   # per replication
    recourse_cost: np.ndarray         # per replication
    replenishment_cost: float

    @property
    def mean_events(self):
        return float(self.lost_sales_events.mean())

    @property
    def mean_quantity(self):
        return float(self.lost_sales_quantity.mean())

    @property
    def mean_recourse_cost(self):
        return float(self.recourse_cost.mean())

    @property
    def mean_total_cost(self):
        return self.replenishment_cost + self.mean_recourse_cost


def _simulate_once(instance, orders, demand):
    """Closed-form recursion; minimal lost sales are optimal since every
    shortage unit costs p_i >= 0 and every held unit h_i >= 0.

    Orders may be fractional (x is continuous in the model), so stock is
    carried as a float.
    """
    events = 0
    quantity = 0.0
    cost = 0.0
    for v, h, p, x_row, d_row in zip(
            instance.initial_inventory.tolist(), instance.holding_cost.tolist(),
            instance.lost_sales_penalty.tolist(), orders.tolist(), demand.tolist()):
        for x, d in zip(x_row, d_row):
            v = v + x - d
            if v >= 0.0:
                cost += h * v
            else:
                u = -v
                v = 0.0
                if u > EVENT_TOL:
                    events += 1
                quantity += u
                cost += p * u
    return events, quantity, cost


def sample_demand(instance, rng):
    d = rng.normal(instance.demand_mean, instance.demand_std)
    return np.rint(np.clip(d, 0.0, None))


def simulate_policy(instance, plan: ReplenishmentPlan, replications=5,
                    seed=0, label="", zero_demand=False) -> SimulationReport:
    """Monte-Carlo evaluation of a fixed plan on fresh demand draws.

    The orders are simulated as solved, fractional quantities included:
    they are the orders whose setups and freight ``plan.first_stage_cost``
    charges.  Streams are split per replication from the
    seed and never depend on the plan, so runs with the same seed share
    demand across policies.
    """
    orders = np.asarray(plan.orders, dtype=float)
    streams = np.random.SeedSequence(seed).spawn(replications)
    events = np.zeros(replications)
    quantity = np.zeros(replications)
    cost = np.zeros(replications)
    for r in range(replications):
        if zero_demand:
            demand = np.zeros((instance.num_items, instance.num_periods))
        else:
            rng = np.random.Generator(np.random.Philox(streams[r]))
            demand = sample_demand(instance, rng)
        events[r], quantity[r], cost[r] = _simulate_once(instance, orders, demand)
    return SimulationReport(
        label=label or "plan", replications=replications,
        lost_sales_events=events, lost_sales_quantity=quantity,
        recourse_cost=cost, replenishment_cost=plan.first_stage_cost(instance))


def compare_policies(instance, rho_list=(0.5, 0.9), replications=5, seed=0,
                     backend=None, mip_gap=1e-6):
    """Solve risk-neutral and semideviation plans, simulate under shared
    demand streams, and return [(label, plan, report), ...]."""
    backend = get_backend(backend)
    model = build_mssop_two_stage(instance)
    runs = []
    art = build_dep_expectation(model.problem)
    sol = optimal(backend.solve_mip(art.program, gap_tol=mip_gap),
                  "risk-neutral ordering model")
    runs.append(("neutral", model.decode_plan(art.first_stage_values(sol.x))))
    for rho in rho_list:
        art = build_dep_absolute_semideviation(model.problem, rho,
                                               collapse_mean_row=True)
        sol = optimal(backend.solve_mip(art.program, gap_tol=mip_gap),
                      f"semideviation ordering model (rho={rho})")
        runs.append((f"asd-{rho:g}", model.decode_plan(art.first_stage_values(sol.x))))
    out = []
    for label, plan in runs:
        out.append((label, plan,
                    simulate_policy(instance, plan, replications, seed, label)))
    return out
