from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flatpwa import miqpsolver
from flatpwa.config import load_scenario
from flatpwa.miencoding import (BigMData, MiqpModel, build_admissible_union,
                                compute_big_m, encode_horizon)
from flatpwa.miqpsolver import (BUDGET_EXCEEDED, SolveBudget, _node_problem,
                                solve_by_cell_enumeration, solve_miqp)
from flatpwa.numkernel import (INFEASIBLE, ITERATION_LIMIT, OPTIMAL, QpProblem,
                               solve_qp)
from flatpwa.pipeline import build_controller, build_pipeline
from flatpwa.polytope import HPolytope
from flatpwa.relupwa import ReluNetwork, enumerate_cells
from flatpwa.simulate import rk4_discretize, run_closed_loop
from flatpwa.tolerances import DEFAULT


def aircraft_model(union, bigm, plant, N_p, z0):
    A_d, B_d = rk4_discretize(plant.A, plant.B, 0.1)
    return encode_horizon(union, N_p, A_d, B_d,
                          np.array([[20.0, 1.0], [1.0, 0.5]]), [[0.005]],
                          np.asarray(z0, dtype=float), bigm,
                          state_rows=plant.state_rows,
                          input_map=plant.input_map)


def test_single_cell_model_reduces_to_qp(monkeypatch):
    net = ReluNetwork(W1=[[1.0]], b1=[10.0], W2=[[1.0]], b2=[-10.0])
    d = enumerate_cells(net, HPolytope.box([-1.0], [1.0]))
    U = build_admissible_union(d, u_max=1.0, eps=0.0)
    bigm = BigMData.uniform(U, 10.0)
    m = encode_horizon(U, 1, [[1.0]], [[1.0]], [[1.0]], [[1.0]], [0.5], bigm,
                       input_map=np.array([[0.0, 1.0]]))
    calls = []
    monkeypatch.setattr(miqpsolver, "solve_qp",
                        lambda prob, **kw: calls.append(1) or solve_qp(prob, **kw))
    res = solve_miqp(m)
    assert res.status == OPTIMAL and m.n_bin == 0
    assert len(calls) == 1         # the root is the only leaf
    qp = solve_qp(QpProblem(H=m.H, g=m.g, G=m.G, h=m.h, E=m.E, d=m.d, c0=m.c0))
    assert res.objective == pytest.approx(qp.objective, abs=1e-9)


def test_oracle_counts_single_step(aircraft_union, aircraft_bigm, aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 1,
                       [0.1, 0.0])
    res = solve_by_cell_enumeration(m)
    assert res.status == OPTIMAL
    assert res.node_count == 3  # one QP per cell


def test_oracle_infeasible_outside_cells(aircraft_union, aircraft_bigm,
                                         aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 2,
                       [0.4, 0.0])  # beyond the workspace: no cell contains it
    assert solve_by_cell_enumeration(m).status == INFEASIBLE
    assert solve_miqp(m).status == INFEASIBLE


def test_oracle_guard():
    net = ReluNetwork(W1=[[1.0]], b1=[0.5], W2=[[1.0]], b2=[0.0])
    d = enumerate_cells(net, HPolytope.box([-1.0], [1.0]))
    U = build_admissible_union(d, u_max=5.0, eps=0.0)
    bigm = BigMData.uniform(U, 10.0)
    m = encode_horizon(U, 30, [[1.0]], [[1.0]], [[1.0]], [[1.0]], [0.0], bigm,
                       input_map=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_by_cell_enumeration(m, guard=1000)


def test_branch_and_bound_matches_oracle(aircraft_union, aircraft_bigm,
                                         aircraft_plant):
    rng = np.random.default_rng(17)
    agree = 0
    for _ in range(25):
        N_p = int(rng.integers(1, 4))
        z0 = rng.uniform([-0.3, -1.0], [0.25, 1.0])
        m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, N_p, z0)
        bb = solve_miqp(m)
        oracle = solve_by_cell_enumeration(m)
        assert (bb.status == OPTIMAL) == (oracle.status == OPTIMAL)
        if bb.status == OPTIMAL:
            assert bb.objective == pytest.approx(oracle.objective, abs=1e-5)
            assert bb.node_count <= 3 * 3 ** N_p
            agree += 1
    assert agree >= 10  # the draw box straddles the feasible set


# random one-hidden-layer nets over (z, v) in [-1, 1]^2, a single integrator
# z+ = z + v/2, and z0 reaching beyond the box, where no cell is feasible
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(2, 4),
       N_p=st.integers(1, 3), u_max=st.floats(0.2, 2.0),
       z0=st.floats(-1.2, 1.2))
def test_branch_and_bound_matches_oracle_on_random_unions(seed, n1, N_p, u_max,
                                                          z0):
    rng = np.random.default_rng(seed)
    net = ReluNetwork(W1=rng.normal(size=(n1, 2)), b1=rng.normal(scale=0.5, size=n1),
                      W2=rng.normal(size=(1, n1)), b2=[0.0])
    box = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
    try:
        U = build_admissible_union(enumerate_cells(net, box), u_max=u_max, eps=0.0)
    except ValueError:          # the bound empties every cell
        U = []
    assume(len(U) >= 2)
    m = encode_horizon(U, N_p, [[1.0]], [[0.5]], [[1.0]], [[0.1]], [z0],
                       compute_big_m(U, box))
    bb = solve_miqp(m)
    oracle = solve_by_cell_enumeration(m)
    assert bb.status == oracle.status
    if bb.status == OPTIMAL:
        assert bb.objective == pytest.approx(oracle.objective, abs=1e-5)
        x = np.concatenate([bb.x, bb.beta])
        assert np.max(m.G @ x - m.h) <= 1e-8
        assert np.isin(bb.beta, (0.0, 1.0)).all()


def test_monotone_bounds_along_tree(aircraft_union, aircraft_bigm,
                                    aircraft_plant):
    # fixing one more binary never lowers the node relaxation: random paths
    # from the root to a leaf, one binary fixed per step
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 3,
                       [0.2, 0.5])
    assert solve_miqp(m).status == OPTIMAL
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(12):
        node = np.full(m.n_bin, np.nan)
        parent = solve_qp(_node_problem(m, node)).objective
        for k in rng.permutation(m.n_bin):
            node[k] = float(rng.integers(0, 2))
            prob = _node_problem(m, node)
            res = None if prob is None else solve_qp(prob)
            if res is None or res.status != OPTIMAL:
                break          # an infeasible node ends its path
            assert res.objective >= parent - 1e-8
            parent = res.objective
            checked += 1
    assert checked >= 20


def test_incumbent_feasibility(aircraft_union, aircraft_bigm, aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 5,
                       [0.25, 0.0])
    res = solve_miqp(m)
    assert res.status == OPTIMAL
    x = np.concatenate([res.x, res.beta])
    assert np.max(m.G @ x - m.h) <= 1e-8
    assert np.abs(m.E @ x - m.d).max() <= 1e-8
    assert np.abs(res.beta - np.round(res.beta)).max() <= 1e-6


def test_initial_cells_hint_and_budget(aircraft_union, aircraft_bigm,
                                       aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 3,
                       [0.2, 0.0])
    exact = solve_miqp(m)
    hint = exact.cell_sequence(m)
    res = solve_miqp(m, budget=SolveBudget(max_nodes=0), initial_cells=hint)
    assert res.status == BUDGET_EXCEEDED
    assert res.x is not None
    assert res.objective == pytest.approx(exact.objective, abs=1e-8)
    # a bad hint with no exploration budget yields no incumbent
    bad = solve_miqp(m, budget=SolveBudget(max_nodes=0))
    assert bad.status == BUDGET_EXCEEDED and bad.x is None


def test_cell_sequence_decoding(aircraft_union, aircraft_bigm, aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 2,
                       [0.1, 0.0])
    res = solve_miqp(m)
    seq = res.cell_sequence(m)
    assert len(seq) == 2
    zs = res.x[:2 * 3].reshape(3, 2)
    vs = res.x[2 * 3:].reshape(2, 1)
    for i, j in enumerate(seq):
        y = aircraft_plant.input_map @ np.concatenate([zs[i], vs[i]])
        assert aircraft_union.pieces[j].polytope.residual(y) <= 1e-7


def test_iteration_cap_stops_search_without_pruning(monkeypatch, aircraft_union,
                                                    aircraft_bigm, aircraft_plant):
    m = aircraft_model(aircraft_union, aircraft_bigm, aircraft_plant, 3,
                       [0.2, 0.5])
    exact = solve_miqp(m)
    assert exact.status == OPTIMAL and exact.node_count > 1
    calls = []

    def capped_after_first(prob, **kwargs):
        # the first QP solves; every later one hits its iteration cap
        calls.append(1)
        return solve_qp(prob, **kwargs, max_iter=None if len(calls) == 1 else 1)

    monkeypatch.setattr(miqpsolver, "solve_qp", capped_after_first)
    res = solve_miqp(m)           # root relaxation solves, children stall
    assert res.status == BUDGET_EXCEEDED and res.x is None
    calls.clear()
    res = solve_miqp(m, initial_cells=exact.cell_sequence(m))
    assert res.status == BUDGET_EXCEEDED   # hint incumbent kept, tree stalled
    assert res.objective == pytest.approx(exact.objective, abs=1e-8)
    assert res.gap == np.inf
    calls.clear()
    assert solve_by_cell_enumeration(m).status == BUDGET_EXCEEDED
    assert solve_qp(QpProblem(H=m.H, g=m.g, G=m.G, h=m.h, E=m.E, d=m.d),
                    max_iter=1).status == ITERATION_LIMIT


def test_near_integral_root_with_worse_feasible_leaf_is_branched():
    # min (x - 3)^2 over two cells, x <= 1 (binary b1 = 0) or x >= 2 (b2 = 0),
    # with b1 + b2 = 1 and big-M 1e7. Warm started in cell 0, the relaxation
    # reaches x = 3 with b1 = 2e-7, inside the integrality tolerance; the
    # rounded leaf (cell 0, cost 4) is feasible but far above that bound, so
    # the node must be branched, not closed
    big_m = 1e7
    m = MiqpModel(H=np.diag([2.0, 0.0, 0.0]), g=np.array([-6.0, 0.0, 0.0]),
                  c0=9.0,
                  G=np.array([[1.0, -big_m, 0.0], [-1.0, 0.0, -big_m],
                              [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                              [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                  h=np.array([1.0, -2.0, 10.0, 10.0, 1.0, 0.0, 1.0, 0.0]),
                  E=np.array([[0.0, 1.0, 1.0]]), d=np.array([1.0]),
                  n_cont=1, n_bin=2, binary_groups=[[1, 2]])
    root = solve_qp(QpProblem(H=m.H, g=m.g, G=m.G, h=m.h, E=m.E, d=m.d, c0=m.c0),
                    x0=[1.0, 0.0, 1.0])
    assert 0.0 < root.x[1] <= 1e-6 and root.objective < 1e-6
    oracle = solve_by_cell_enumeration(m)
    assert oracle.objective == pytest.approx(0.0, abs=1e-9)
    # the hint leaf (cell 0) is the root's warm start
    res = solve_miqp(m, initial_cells=[0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert res.cell_sequence(m) == [1]


SCENARIOS = Path(__file__).parents[1] / "src" / "flatpwa" / "data" / "scenarios"


@pytest.mark.parametrize("scenario", ["aircraft_mpc", "pmsm_case1"])
def test_relaxed_binaries_stay_nonnegative_without_their_rows(scenario):
    # the horizon carries one box row beta <= 1 per binary and none for
    # beta >= 0: a step's cardinality row sum(beta) = |A| - 1 implies it.
    # Over the shipped closed loop, which branches, every node QP keeps its
    # relaxed binaries at or above -DEFAULT.feas
    pipe = build_pipeline(load_scenario(SCENARIOS / f"{scenario}.yaml"))
    ctl, x0, info = build_controller(pipe)
    spec = info["mpc_spec"]
    n_z, m = spec.B_d.shape
    n_cont = n_z * (spec.N_p + 1) + m * spec.N_p
    relaxed = []

    def spy(prob, **kwargs):
        res = solve_qp(prob, **kwargs)
        if res.status == OPTIMAL and prob.n > n_cont:
            relaxed.append(res.x[n_cont:])
        return res

    nodes = []

    def counted(z, k):
        out = ctl(z, k)
        nodes.append(out[2]["nodes"])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(miqpsolver, "solve_qp", spy)
        cfg = pipe.cfg
        run_closed_loop(pipe.plant, counted, x0, T_sim=cfg.duration, T_s=cfg.T_s,
                        h=cfg.substep)
    beta = np.concatenate(relaxed)
    assert sum(nodes) > 0 and beta.size > 0
    assert beta.min() >= -DEFAULT.feas
    assert (beta <= DEFAULT.binary_integrality).any()    # some sit at the bound
