from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import qmc

import flatpwa
from flatpwa import controllers, numkernel, polytope
from flatpwa.config import load_scenario
from flatpwa.controllers import (ClfSpec, MpcSpec, clf_step, clf_structure,
                                 flmpc_step, flmpc_structure, mpc_step,
                                 mpc_structure, verify_clf)
from flatpwa.miencoding import build_admissible_union, compute_big_m
from flatpwa.miqpsolver import solve_by_cell_enumeration, solve_miqp
from flatpwa.pipeline import build_controller, build_pipeline
from flatpwa.tolerances import DEFAULT
from flatpwa.plants.aircraft import aircraft_phi
from flatpwa.simulate import ControllerInfeasible, locate_cell, rk4_discretize

SCENARIOS = Path(flatpwa.__file__).parent / "data" / "scenarios"
PAPER_P = np.array([[0.1430, 0.1932], [0.1932, 0.6378]])
PAPER_GAIN = np.array([[3.16, 2.55]])


@pytest.fixture(scope="module")
def clf_spec():
    return ClfSpec(P=PAPER_P, gamma=0.05, gain=PAPER_GAIN)


@pytest.fixture(scope="module")
def mpc_spec(aircraft_plant):
    A_d, B_d = rk4_discretize(aircraft_plant.A, aircraft_plant.B, 0.1)
    return MpcSpec(Q=[[20.0, 1.0], [1.0, 0.5]], R=[[0.005]], N_p=5, T_s=0.1,
                   A_d=A_d, B_d=B_d, state_rows=aircraft_plant.state_rows,
                   input_map=aircraft_plant.input_map)


@pytest.fixture(scope="module")
def mpc_s(mpc_spec, aircraft_union, aircraft_bigm):
    return mpc_structure(mpc_spec, aircraft_union, aircraft_bigm)


@pytest.fixture(scope="module")
def flmpc_s(mpc_spec, aircraft_union):
    return flmpc_structure(mpc_spec, aircraft_union)


def clf(spec, U, z, plant):
    """One CLF step on a structure built for this call."""
    return clf_step(clf_structure(spec, U, plant.A, plant.B, plant.input_map), z)


def test_verify_clf_trivial_pass():
    spec = ClfSpec(P=np.eye(2), gamma=0.1, gain=np.zeros((2, 2)))
    report = verify_clf(spec, np.zeros((2, 2)), np.eye(2))
    assert report["pass"]


def test_verify_clf_paper_values(clf_spec, aircraft_plant):
    report = verify_clf(clf_spec, aircraft_plant.A, aircraft_plant.B)
    assert report["pass"]
    assert report["pd_min_eig"] > 0
    assert report["lmi_max_eig"] <= 1e-8


def test_verify_clf_indefinite_p_fails(aircraft_plant):
    spec = ClfSpec(P=[[1.0, 0.0], [0.0, -0.5]], gamma=0.05, gain=PAPER_GAIN)
    report = verify_clf(spec, aircraft_plant.A, aircraft_plant.B)
    assert not report["pass"]
    assert report["pd_min_eig"] < 0


def test_clf_step_origin(clf_spec, aircraft_union, aircraft_plant):
    out = clf(clf_spec, aircraft_union, np.zeros(2), aircraft_plant)
    assert np.abs(out.v).max() <= 1e-7


def test_clf_step_interior_returns_desired(clf_spec, aircraft_union,
                                           aircraft_plant):
    # states where v_d is strictly decreasing and strictly admissible: the
    # projection must return v_d itself
    rng = np.random.default_rng(1)
    A, B, P = aircraft_plant.A, aircraft_plant.B, clf_spec.P
    checked = 0
    for _ in range(200):
        z = rng.uniform([-0.2, -0.6], [0.2, 0.6])
        vd = clf_spec.v_d(z)
        decrease = 2 * z @ P @ (A @ z + B @ vd) \
            - (-clf_spec.gamma * z @ P @ z)
        y = aircraft_plant.input_map @ np.concatenate([z, vd])
        inside = min(c.polytope.residual(y) for c in aircraft_union.pieces)
        if decrease < -1e-3 and inside < -1e-3:
            out = clf(clf_spec, aircraft_union, z, aircraft_plant)
            assert out.v[0] == pytest.approx(vd[0], abs=1e-7)
            checked += 1
    assert checked >= 20


def test_clf_step_matches_oracle(clf_spec, aircraft_union, aircraft_bigm,
                                 aircraft_plant, clf_bigm_model):
    z = np.array([0.2, 0.0])
    out = clf(clf_spec, aircraft_union, z, aircraft_plant)
    oracle = solve_by_cell_enumeration(
        clf_bigm_model(clf_spec, aircraft_union, z, aircraft_plant, aircraft_bigm))
    assert out.objective == pytest.approx(oracle.objective, abs=1e-7)
    assert out.v[0] == pytest.approx(oracle.x[0], abs=1e-5)


def test_clf_step_near_integral_relaxation(clf_spec, aircraft_union,
                                           aircraft_bigm, aircraft_plant,
                                           clf_bigm_model):
    # the big-M CLF program with the hint cell 0, feasible here but not
    # optimal: its leaf warm starts the root, whose relaxation keeps that
    # cell's binary within the integrality tolerance of 0 (big-M 5000 turns
    # it into real slack); branch and bound must branch on it, not close the
    # node with the rounded leaf
    z = np.array([0.19187548340386262, 0.47398440485235516])
    model = clf_bigm_model(clf_spec, aircraft_union, z, aircraft_plant,
                           aircraft_bigm)
    res = solve_miqp(model, initial_cells=[0])
    oracle = solve_by_cell_enumeration(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(oracle.objective, abs=1e-7)


# C9's box of initial states is [-0.2, 0.2] x [-0.5, 0.5]; the draws reach
# beyond it, and beyond the workspace |z1| <= 20 deg, where no cell is
# feasible
@settings(max_examples=150, deadline=None)
@given(z1=st.floats(-0.4, 0.4), z2=st.floats(-1.0, 1.0))
def test_clf_per_cell_matches_big_m_program(z1, z2, clf_spec, aircraft_union,
                                            aircraft_bigm, aircraft_plant,
                                            clf_bigm_model):
    z = np.array([z1, z2])
    model = clf_bigm_model(clf_spec, aircraft_union, z, aircraft_plant,
                           aircraft_bigm)
    bb = solve_miqp(model)
    oracle = solve_by_cell_enumeration(model)
    try:
        out = clf(clf_spec, aircraft_union, z, aircraft_plant)
    except ControllerInfeasible:
        out = None
    assert bb.status in ("optimal", "infeasible")
    assert bb.status == oracle.status == ("infeasible" if out is None else "optimal")
    if out is None:
        return
    for ref in (bb, oracle):
        assert out.objective == pytest.approx(ref.objective, abs=1e-7)
        assert out.v[0] == pytest.approx(ref.x[0], abs=1e-5)


def test_clf_step_solves_no_qp_for_a_scalar_input(monkeypatch, clf_spec,
                                                 aircraft_union, aircraft_plant):
    # m = 1: the closed form poses no QP, for states where v_d is admissible
    # and decreasing in the hint cell (returned from that cell) and for
    # states it projects or rejects; never branch and bound
    qp_calls = []

    def counted(name):
        orig = getattr(controllers, name)

        def call(*args, **kwargs):
            qp_calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(controllers, name, call)

    def no_miqp(*args, **kwargs):
        raise AssertionError("the CLF step called branch and bound")

    counted("solve_qp")
    counted("QpProblem")
    monkeypatch.setattr(controllers, "solve_miqp", no_miqp)
    A, B, P, S = aircraft_plant.A, aircraft_plant.B, clf_spec.P, aircraft_plant.input_map
    s = clf_structure(clf_spec, aircraft_union, A, B, S)
    rng = np.random.default_rng(4)
    seen = {"desired": 0, "other": 0}
    for _ in range(300):
        z = rng.uniform([-0.3, -0.8], [0.3, 0.8])
        vd = clf_spec.v_d(z)
        decrease = 2 * z @ P @ (A @ z + B @ vd) + clf_spec.gamma * z @ P @ z
        y = S @ np.concatenate([z, vd])
        inside = [c.polytope.residual(y) for c in aircraft_union.pieces]
        j = int(np.argmin(inside))
        try:
            out = clf_step(s, z, first_cell=j)
        except ControllerInfeasible:
            out = None
        assert not qp_calls, qp_calls
        if decrease < -1e-3 and inside[j] < -1e-3:
            assert out.cell == j and out.v[0] == vd[0]
            seen["desired"] += 1
        elif out is None or out.objective > DEFAULT.miqp_gap:
            seen["other"] += 1
    assert min(seen.values()) >= 20, seen


def _clf_programs(s, rng, count):
    """(program, hints) over states from C9's box, a box beyond the
    workspace (|z1| <= 20 deg) and norms 1e-9..1e-3, where the decrease
    row's coefficients are tiny; then states whose v_d sits within 1e-3 of
    one of a cell's bounds, where two cells can come within the optimality
    gap and the hint decides, tried with every hint."""
    cells = len(s.rows.slices)
    for k in range(count):
        if k % 3 == 0:
            z = rng.uniform([-0.2, -0.5], [0.2, 0.5])
        elif k % 3 == 1:
            z = rng.uniform([-0.4, -1.0], [0.4, 1.0])
        else:
            direction = rng.normal(size=2)
            z = direction / np.linalg.norm(direction) * 10.0 ** rng.uniform(-9, -3)
        yield controllers._clf_rows(s, z), (None, int(rng.integers(cells)))
    sided = np.flatnonzero(s.G[:, 0] != 0.0)
    for _ in range(count // 4):
        z = rng.uniform([-0.2, -0.5], [0.2, 0.5])
        h, a, r, _ = controllers._clf_rows(s, z)
        i = rng.choice(sided)
        vd = np.array([h[i] / s.G[i, 0] + rng.uniform(-1e-3, 1e-3)])
        yield (h, a, r, vd), (None, *range(cells))


def test_clf_closed_form_matches_the_per_cell_qps(clf_spec, aircraft_union,
                                                  aircraft_plant):
    # the m = 1 closed form against the QP loop of m > 1 on the same
    # program: the same verdict, cell and input
    s = clf_structure(clf_spec, aircraft_union, aircraft_plant.A, aircraft_plant.B,
                      aircraft_plant.input_map)
    with_cost = replace(s, cost=numkernel.QpMatrices.of(2.0 * np.eye(1)))
    rng = np.random.default_rng(8)
    verdicts = {True: 0, False: 0}
    tiny_projected = hint_decided = 0
    for rows, hints in _clf_programs(s, rng, 2001):
        unhinted = None
        for hint in hints:
            closed = controllers._clf_intervals(s, *rows, hint)
            qps = controllers._clf_cell_qps(with_cost, *rows, hint)
            assert (closed is None) == (qps is None), (rows, hint)
            verdicts[closed is None] += 1
            if closed is None:
                continue
            assert closed.cell == qps.cell, (rows, hint)
            assert abs(closed.v[0] - qps.v[0]) <= 1e-12, (rows, hint)
            assert closed.objective == pytest.approx(qps.objective, rel=1e-12, abs=1e-12)
            tiny_projected += bool(abs(rows[1][0]) <= 2e-3 and closed.objective > 0.0)
            if hint is None:
                unhinted = closed.cell
            hint_decided += closed.cell != unhinted
    assert min(verdicts.values()) >= 100, verdicts
    assert tiny_projected >= 20 and hint_decided >= 5, (tiny_projected, hint_decided)


def test_clf_step_with_two_inputs_matches_big_m_program(pmsm_cells, pmsm_plant,
                                                        clf_bigm_model):
    # the per-cell QP path, which no shipped CLF scenario runs, on the
    # PMSM's two-input union with an arbitrary positive-definite P
    params = pmsm_plant.extras["params"]
    U = build_admissible_union(pmsm_cells, u_max=params.u_bound,
                               eps=np.array([1.0, 0.76]))
    big_m = compute_big_m(U, pmsm_plant.net_workspace)
    spec = ClfSpec(P=np.diag([2.0, 1.0, 0.5]), gamma=0.1,
                   gain=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
    rng = np.random.default_rng(12)
    statuses = set()
    for _ in range(12):
        z = 1.5 * rng.uniform(params.z_lower, params.z_upper)
        try:
            out = clf(spec, U, z, pmsm_plant)
        except ControllerInfeasible:
            out = None
        oracle = solve_by_cell_enumeration(clf_bigm_model(spec, U, z, pmsm_plant, big_m))
        assert oracle.status == ("infeasible" if out is None else "optimal")
        statuses.add(oracle.status)
        if out is not None:
            assert out.objective == pytest.approx(oracle.objective, abs=1e-7)
            assert out.v == pytest.approx(oracle.x[:2], abs=1e-5)
    assert statuses == {"optimal", "infeasible"}


def test_clf_argmin_invariance_under_lyapunov_scaling(clf_spec, aircraft_union,
                                                      aircraft_plant):
    # P -> lam P scales both sides of the decrease row: the same program
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        z = rng.uniform([-0.2, -0.8], [0.2, 0.8])
        try:
            base = clf(clf_spec, aircraft_union, z, aircraft_plant)
        except ControllerInfeasible:
            continue
        for lam in (0.5, 3.0):
            spec = ClfSpec(P=lam * clf_spec.P, gamma=clf_spec.gamma,
                           gain=clf_spec.gain)
            scaled = clf(spec, aircraft_union, z, aircraft_plant)
            assert scaled.v[0] == pytest.approx(base.v[0], abs=1e-6)
        checked += 1
    assert checked >= 80


def test_online_steps_make_no_lp_calls(monkeypatch, clf_spec, mpc_spec, mpc_s,
                                       aircraft_union, aircraft_plant):
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called on the online path")

    for module in (numkernel, polytope):
        monkeypatch.setattr(module, "solve_lp", no_lp)
    s = clf_structure(clf_spec, aircraft_union, aircraft_plant.A, aircraft_plant.B,
                      aircraft_plant.input_map)
    clf_out = clf_step(s, np.array([0.2, 0.0]))
    mpc = mpc_step(mpc_spec, mpc_s, np.array([0.25, 0.0]))
    assert np.isfinite(clf_out.objective)
    assert mpc.result.status == "optimal"
    assert mpc.result.node_count > 1    # branch and bound really branched


def test_mpc_step_origin(mpc_spec, mpc_s):
    out = mpc_step(mpc_spec, mpc_s, np.zeros(2))
    assert np.abs(out.v).max() <= 1e-6
    assert np.abs(out.z_forecast).max() <= 1e-6


def test_mpc_forecast_admissible(mpc_spec, mpc_s, aircraft_union,
                                 aircraft_plant):
    out = mpc_step(mpc_spec, mpc_s, np.array([0.25, 0.0]))
    for i in range(mpc_spec.N_p):
        y = aircraft_plant.input_map @ np.concatenate(
            [out.z_forecast[i], out.v_forecast[i]])
        assert locate_cell(aircraft_union, y) >= 0


def test_mpc_infeasible_surfaces(mpc_spec, mpc_s):
    with pytest.raises(ControllerInfeasible):
        mpc_step(mpc_spec, mpc_s, np.array([0.5, 0.0]))


def test_flmpc_origin(flmpc_s, aircraft_plant):
    out = flmpc_step(flmpc_s, aircraft_plant.phi, np.zeros(2))
    assert np.abs(out.v).max() <= 1e-6


def test_flmpc_first_input_admissible_forecast_not(mpc_spec, flmpc_s,
                                                   aircraft_plant):
    params = aircraft_plant.extras["params"]
    out = flmpc_step(flmpc_s, aircraft_plant.phi, np.array([0.1, 0.8]))
    assert np.abs(out.first_input_value).max() <= params.u_max_scaled + 1e-6
    forecast_vals = [abs(aircraft_phi(out.z_forecast[i][0],
                                      out.v_forecast[i][0], params))
                     for i in range(mpc_spec.N_p)]
    assert max(forecast_vals[1:]) > params.u_max_scaled


def test_flmpc_state_rows_hold_over_forecast(mpc_spec, flmpc_s,
                                             aircraft_plant):
    params = aircraft_plant.extras["params"]
    out = flmpc_step(flmpc_s, aircraft_plant.phi, np.array([0.2, 0.3]))
    assert out.z_forecast[:mpc_spec.N_p, 0].max() <= params.phi_stall + 1e-8


# --- matrix records: built with the controller, none in its loop -----------

def _shipped_pipeline(name):
    """A shipped scenario with its cells, union and big-M built (set-up
    poses one emptiness QP per candidate cell)."""
    pipe = build_pipeline(load_scenario(SCENARIOS / f"{name}.yaml"))
    pipe.ensure_big_m()
    return pipe


def _shipped_controller(pipe):
    ctl, x0, _ = build_controller(pipe)
    return ctl, pipe.plant.to_flat(np.asarray(x0))


def _count_matrix_work(monkeypatch):
    """Calls of what builds a matrix record (the record constructor,
    eigvalsh for the PSD check, svd for the equality null space, the row
    norms), of the per-call G record and of the CLF's lifting of the union."""
    counts = {}

    def counted(owner, name, wrap=lambda f: f):
        orig = getattr(owner, name)
        counts[name] = 0

        def call(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrap(call))

    counted(np.linalg, "eigvalsh")
    counted(np.linalg, "svd")
    counted(numkernel, "_inverse_norms")
    counted(numkernel.QpMatrices, "of", staticmethod)
    counted(numkernel.QpMatrices, "with_rows")
    counted(controllers, "clf_structure")
    return counts


@pytest.mark.parametrize("scenario", ["aircraft_mpc", "aircraft_flmpc", "aircraft_clf",
                                      "pmsm_case1", "uav_tracking"])
def test_second_sample_reuses_the_matrix_records(monkeypatch, scenario):
    # every record is built with the controller: the cold first sample (which
    # branches on the PMSM) and the next one, from the predicted state,
    # build none; branch-and-bound nodes assemble theirs in closed form
    ctl, z = _shipped_controller(_shipped_pipeline(scenario))
    counts = _count_matrix_work(monkeypatch)
    for k in range(2):
        _, _, info = ctl(z, k)
        assert not any(counts.values()), (k, counts)
        if scenario not in ("aircraft_flmpc", "aircraft_clf"):
            assert {"status", "nodes", "gap"} <= info.keys()
        if "forecast" in info:
            z = info["forecast"][0][1]


# --- the cold first solve: hinted with the cell of (z0, v_ref_0) -----------

def _first_solves(monkeypatch, pipe, x0s):
    """(model, budget, hint, result) of the first solve of a freshly built
    controller from each plant state in ``x0s``."""
    seen = []

    def spy(model, budget=None, initial_cells=None):
        res = solve_miqp(model, budget=budget, initial_cells=initial_cells)
        seen.append((model, budget, initial_cells, res))
        return res

    monkeypatch.setattr(controllers, "solve_miqp", spy)
    first = []
    for x0 in x0s:
        ctl, _, _ = build_controller(pipe)
        seen.clear()
        try:
            ctl(pipe.plant.to_flat(np.asarray(x0, dtype=float)), 0)
        except ControllerInfeasible:
            pass
        first.append(seen[0])
    return first


def _same_solve(a, b, model):
    assert a.status == b.status
    if a.x is not None:
        assert a.objective == pytest.approx(b.objective, abs=DEFAULT.miqp_gap)
        assert a.cell_sequence(model) == b.cell_sequence(model)


@pytest.mark.parametrize("scenario, N_p, draws", [
    ("aircraft_mpc", None, 16),     # the shipped x0, then C9's box
    ("pmsm_case1", None, 0),        # from rest
    ("pmsm_case1", 2, 0),           # short enough for the oracle
])
def test_cold_hint_keeps_the_first_solve(monkeypatch, scenario, N_p, draws):
    cfg = load_scenario(SCENARIOS / f"{scenario}.yaml")
    if N_p is not None:
        cfg.N_p = N_p
    pipe = build_pipeline(cfg)
    pipe.ensure_big_m()
    _, x0, _ = build_controller(pipe)
    sobol = qmc.Sobol(d=2, scramble=True, seed=9).random(draws)
    x0s = [x0] + list(np.array([-0.2, -0.5]) + sobol * np.array([0.4, 1.0]))
    for k, (model, budget, hint, hinted) in enumerate(_first_solves(monkeypatch, pipe, x0s)):
        assert hint is not None and len(hint) == model.meta["N_p"]
        _same_solve(hinted, solve_miqp(model, budget=budget), model)
        if len(model.binary_groups[0]) ** len(model.binary_groups) <= 1000:
            _same_solve(hinted, solve_by_cell_enumeration(model), model)
        if scenario == "pmsm_case1" and k == 0:
            assert hinted.status == "optimal" and hinted.node_count == 0
