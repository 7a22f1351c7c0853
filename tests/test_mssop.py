"""Ordering model: formulation wiring, simulator, freight schedule."""
import numpy as np
import pytest

from riskshed.backend import ScipyBackend
from riskshed.dep import build_dep_expectation
from riskshed.model import scenario_costs
from riskshed.mssop import (
    BREAKPOINT_WEIGHT, FREIGHT_COST, MssopInstance, ReplenishmentPlan,
    _simulate_once, build_mssop_two_stage, generate_mssop_instance,
    sample_demand, simulate_policy,
)


def hand_instance(demand, setup=600.0, weight=2.0, holding=50.0,
                  penalty=200.0, o0=0.0):
    demand = np.asarray(demand, dtype=float)
    S, I, T = demand.shape
    return MssopInstance(
        setup_cost=np.full(I, setup), freight_cost=np.array(FREIGHT_COST),
        breakpoint_weight=np.array(BREAKPOINT_WEIGHT),
        unit_weight=np.full(I, weight), holding_cost=np.full(I, holding),
        lost_sales_penalty=np.full(I, penalty),
        initial_inventory=np.full(I, o0), demand=demand,
        probabilities=np.full(S, 1.0 / S),
        demand_mean=demand.mean(axis=0), demand_std=np.ones((I, T)))


def test_instance_validation():
    with pytest.raises(ValueError):
        hand_instance(np.full((1, 1, 1), -3.0))
    with pytest.raises(ValueError):
        hand_instance(np.zeros((2, 1)))
    inst = hand_instance(np.full((2, 1, 1), 5.0))
    bad = np.array([0.7, 0.7])
    with pytest.raises(ValueError):
        MssopInstance(inst.setup_cost, inst.freight_cost,
                      inst.breakpoint_weight, inst.unit_weight,
                      inst.holding_cost, inst.lost_sales_penalty,
                      inst.initial_inventory, inst.demand, bad,
                      inst.demand_mean, inst.demand_std)


def test_generated_instance_shapes():
    inst = generate_mssop_instance(3, 4, 5, seed=11)
    assert inst.demand.shape == (5, 3, 4)
    assert inst.name == "M.3.4.5"
    assert np.array_equal(inst.demand, np.rint(inst.demand))
    assert np.all(inst.demand >= 0)
    assert inst.probabilities == pytest.approx([0.2] * 5)
    again = generate_mssop_instance(3, 4, 5, seed=11)
    assert np.array_equal(inst.demand, again.demand)


def test_big_m_is_remaining_worst_case_demand():
    demand = np.array([[[3.0, 1.0, 4.0], [2.0, 2.0, 2.0]],
                       [[1.0, 5.0, 0.0], [2.0, 0.0, 6.0]]])
    inst = hand_instance(demand)
    M = inst.big_m()
    # per item: cumulative max-over-scenarios demand from t to the horizon
    assert M[0].tolist() == [3 + 5 + 4, 5 + 4, 4]
    assert M[1].tolist() == [2 + 2 + 6, 2 + 6, 6]


def test_first_stage_layout_and_objective():
    inst = generate_mssop_instance(2, 3, 2, seed=3)
    model = build_mssop_two_stage(inst)
    p = model.problem
    I, T, J = 2, 3, 7
    assert p.first_stage_cost.size == 2 * I * T + 2 * J * T
    o = model.offsets
    assert [o["x"], o["y"], o["q"], o["z"]] == [0, 6, 12, 33]
    # only setups and segment flags are binary; x and z are continuous
    flags = p.first_stage_integrality
    assert not flags[o["x"]:o["y"]].any()
    assert flags[o["y"]:o["q"]].all()
    assert flags[o["q"]:o["z"]].all()
    assert not flags[o["z"]:].any()
    c = p.first_stage_cost
    assert np.allclose(c[o["y"] + T:o["y"] + 2 * T], inst.setup_cost[1])
    assert np.allclose(c[o["z"]:o["z"] + T], FREIGHT_COST[0])
    assert np.allclose(c[o["z"] + 6 * T:o["z"] + 7 * T], FREIGHT_COST[6])
    assert np.allclose(c[:o["y"]], 0.0)


def test_orders_require_setup():
    inst = hand_instance(np.full((1, 1, 1), 10.0))
    model = build_mssop_two_stage(inst)
    p, o = model.problem, model.offsets
    x = np.zeros(p.first_stage_cost.size)
    x[o["x"]] = 4.0
    assert np.min(p.first_stage_matrix @ x - p.first_stage_rhs) < -1e-9
    x[o["y"]] = 1.0
    x[o["q"] + 5] = 1.0
    x[o["z"] + 6] = 8.0 / 70000.0   # covers shipped weight 2 * 4
    assert np.min(p.first_stage_matrix @ x - p.first_stage_rhs) >= -1e-9


def test_recourse_lp_matches_closed_form_recursion():
    inst = generate_mssop_instance(2, 3, 3, seed=7)
    model = build_mssop_two_stage(inst)
    rng = np.random.Generator(np.random.Philox(21))
    orders = rng.integers(0, 200, size=(2, 3)).astype(float)
    x = np.zeros(model.problem.first_stage_cost.size)
    x[model.offsets["x"]:model.offsets["x"] + 6] = orders.ravel()
    phi = scenario_costs(model.problem, x, backend=ScipyBackend())
    for s in range(3):
        _, _, cost = _simulate_once(inst, orders.astype(int),
                                    inst.demand[s])
        assert phi[s] == pytest.approx(cost, abs=1e-6)


def test_dep_solution_obeys_mass_balance():
    inst = generate_mssop_instance(2, 2, 2, seed=5)
    model = build_mssop_two_stage(inst)
    art = build_dep_expectation(model.problem)
    sol = ScipyBackend().solve_mip(art.program, gap_tol=1e-8)
    assert sol.status == "optimal"
    xf = art.first_stage_values(sol.x)
    orders = model.decode_plan(xf).orders
    I, T = 2, 2
    ys = sol.x[art.n1:].reshape(2, -1)    # the y blocks follow x
    for s in range(2):
        y = ys[s]
        v = y[:I * T].reshape(I, T)
        u = y[I * T:2 * I * T].reshape(I, T)
        for i in range(I):
            prev = inst.initial_inventory[i]
            for t in range(T):
                lhs = v[i, t] - prev - u[i, t] - orders[i, t]
                assert lhs == pytest.approx(-inst.demand[s, i, t], abs=1e-6)
                assert u[i, t] <= inst.demand[s, i, t] + 1e-6
                prev = v[i, t]


def test_freight_charged_on_convex_envelope():
    # one item, one period, one scenario: order d, pay setup plus the
    # scaled top-segment rate w*d * 2200/70000
    inst = hand_instance(np.full((1, 1, 1), 10.0))
    model = build_mssop_two_stage(inst)
    art = build_dep_expectation(model.problem)
    sol = ScipyBackend().solve_mip(art.program, gap_tol=1e-9)
    assert sol.status == "optimal"
    want = 600.0 + 2.0 * 10.0 * 2200.0 / 70000.0
    assert sol.objective == pytest.approx(want, abs=1e-6)
    plan = model.decode_plan(art.first_stage_values(sol.x))
    assert plan.orders[0, 0] == pytest.approx(10.0, abs=1e-6)
    assert (inst.freight_cost @ plan.segment_weights)[0] == pytest.approx(
        20.0 * 2200.0 / 70000.0, abs=1e-6)


def test_plan_helpers():
    inst = hand_instance(np.full((1, 2, 2), 5.0), weight=3.0)
    orders = np.array([[4.0, 0.0], [1.0, 2.0]])
    setups = np.array([[1.0, 0.0], [1.0, 1.0]])
    z = np.zeros((7, 2))
    z[2, 0] = 0.5
    plan = ReplenishmentPlan(orders=orders, setups=setups,
                             segment_weights=z)
    assert (inst.unit_weight @ plan.orders).tolist() == [15.0, 6.0]
    assert (inst.freight_cost @ plan.segment_weights).tolist() == [500.0, 0.0]
    assert plan.first_stage_cost(inst) == pytest.approx(3 * 600.0 + 500.0)


def test_simulator_zero_demand_null_plan():
    inst = generate_mssop_instance(2, 3, 2, seed=9)
    plan = ReplenishmentPlan(orders=np.zeros((2, 3)), setups=np.zeros((2, 3)),
                             segment_weights=np.zeros((7, 3)))
    rep = simulate_policy(inst, plan, replications=4, seed=1,
                          zero_demand=True)
    assert rep.mean_events == 0.0
    assert rep.mean_quantity == 0.0
    assert rep.mean_recourse_cost == 0.0
    assert rep.mean_total_cost == 0.0


def test_simulator_charges_fractional_orders_as_solved():
    inst = hand_instance(np.full((1, 1, 1), 10.0), holding=50.0)
    plan = ReplenishmentPlan(orders=np.array([[0.5]]), setups=np.ones((1, 1)),
                             segment_weights=np.zeros((7, 1)))
    rep = simulate_policy(inst, plan, replications=2, seed=0,
                          zero_demand=True)
    assert rep.recourse_cost.tolist() == [50.0 * 0.5] * 2
    assert rep.mean_events == 0.0
    assert rep.mean_quantity == 0.0
    # a shortfall of solver noise is charged but is no lost-sales event
    events, quantity, cost = _simulate_once(inst, np.array([[10.0 - 1e-9]]),
                                            np.array([[10.0]]))
    assert events == 0
    assert quantity == pytest.approx(1e-9, abs=1e-12)
    assert cost == pytest.approx(200.0 * 1e-9, abs=1e-12)


def test_simulator_streams_shared_across_policies():
    inst = generate_mssop_instance(2, 3, 3, seed=13)
    null = ReplenishmentPlan(orders=np.zeros((2, 3)), setups=np.zeros((2, 3)),
                             segment_weights=np.zeros((7, 3)))
    rep = simulate_policy(inst, null, replications=6, seed=4)
    # with no stock the lost quantity per replication is the drawn demand,
    # which depends only on the seed, never on the plan
    streams = np.random.SeedSequence(4).spawn(6)
    for r in range(6):
        rng = np.random.Generator(np.random.Philox(streams[r]))
        demand = sample_demand(inst, rng)
        assert rep.lost_sales_quantity[r] == demand.sum()
        assert rep.lost_sales_events[r] == np.count_nonzero(demand)
    again = simulate_policy(inst, null, replications=6, seed=4)
    assert np.array_equal(rep.recourse_cost, again.recourse_cost)


def test_simulation_report_means():
    rep = simulate_policy(generate_mssop_instance(1, 2, 2, seed=2),
                          ReplenishmentPlan(np.zeros((1, 2)), np.zeros((1, 2)),
                                            np.zeros((7, 2))),
                          replications=3, seed=0)
    assert rep.mean_events == pytest.approx(rep.lost_sales_events.mean())
    assert rep.mean_total_cost == pytest.approx(
        rep.replenishment_cost + rep.recourse_cost.mean())
