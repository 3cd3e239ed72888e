"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes a few minutes (the CLF closed loops at 1 kHz
dominate).
"""

import math
import time

import numpy as np

from flatpwa.controllers import (ClfSpec, MpcSpec, flmpc_step, flmpc_structure,
                                 make_clf_controller, make_mpc_controller,
                                 mpc_step, mpc_structure, verify_clf)
from flatpwa.errorbounds import GridSpec, grid_error_certificate, taylor_cell_bounds
from flatpwa.miencoding import build_admissible_union, compute_big_m, encode_horizon
from flatpwa.miqpsolver import SolveBudget, solve_by_cell_enumeration, solve_miqp
from flatpwa.numkernel import OPTIMAL
from flatpwa.pipeline import DEFAULT_EPS
from flatpwa.plants import aircraft as aircraft_mod
from flatpwa.plants import uav as uav_mod
from flatpwa.polytope import box_bounds, row_violations
from flatpwa.relupwa import enumerate_cells, forward, pwa_lipschitz
from flatpwa.simulate import (ControllerInfeasible, locate_cell, rk4_discretize,
                              rk4_step, run_closed_loop)

PARAMS = aircraft_mod.AircraftParams()
PAPER_P = np.array([[0.1430, 0.1932], [0.1932, 0.6378]])
PAPER_GAIN = np.array([[3.16, 2.55]])
PAPER_Q = np.array([[20.0, 1.0], [1.0, 0.5]])
PAPER_R = np.array([[0.005]])


def report(criterion, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def paper_mpc_spec(plant, N_p=5, T_s=0.1):
    A_d, B_d = rk4_discretize(plant.A, plant.B, T_s)
    return MpcSpec(Q=PAPER_Q, R=PAPER_R, N_p=N_p, A_d=A_d, B_d=B_d,
                   state_rows=plant.state_rows, input_map=plant.input_map)


def test_c1_cell_counts(aircraft_net, aircraft_plant, uav_net, uav_plant,
                        pmsm_net, pmsm_plant):
    counts = {}
    times = {}
    for name, net, plant in (("aircraft", aircraft_net, aircraft_plant),
                             ("uav", uav_net, uav_plant),
                             ("pmsm", pmsm_net, pmsm_plant)):
        t0 = time.perf_counter()
        counts[name] = len(enumerate_cells(net, plant.net_workspace))
        times[name] = time.perf_counter() - t0
    ok = counts == {"aircraft": 3, "uav": 14, "pmsm": 10} \
        and all(t < 1.0 for t in times.values())
    report(1, ok, f"cell counts {counts} in "
                  f"{ {k: round(v, 3) for k, v in times.items()} } s "
                  "(expect 3/14/10, < 1 s each)")


def test_c2_pwa_exactness(request, piece_values):
    # the enumerated pieces themselves: locate each point's cell, apply its F, f
    worst = {}
    located = {}
    for name in ("aircraft", "uav", "pmsm"):
        net = request.getfixturevalue(f"{name}_net")
        plant = request.getfixturevalue(f"{name}_plant")
        cells = request.getfixturevalue(f"{name}_cells")
        rng = np.random.default_rng(12345)
        lo, hi = box_bounds(plant.net_workspace)
        pts = rng.uniform(lo, hi, size=(10_000, lo.size))
        kept, vals = piece_values(cells, pts)
        located[name] = len(kept)
        worst[name] = float(np.abs(vals - forward(net, kept)).max())
    ok = all(v <= 1e-7 for v in worst.values()) \
        and all(n >= 9_990 for n in located.values())
    report(2, ok, "max |piece F y + f - forward| over 1e4 points: "
                  f"{ {k: f'{v:.2e}' for k, v in worst.items()} } (<= 1e-7), "
                  f"located {located}")


def test_c3_lipschitz_constants(aircraft_cells):
    lips = aircraft_mod.aircraft_lipschitz(PARAMS)
    gamma_nn = pwa_lipschitz(aircraft_cells)
    gamma_eps = lips["gamma_phi"] + gamma_nn
    checks = [
        ("gamma_nn", gamma_nn, 7.29, 0.01),
        ("gamma_phi", lips["gamma_phi"], 29.42, 0.05),
        ("gamma_eps", gamma_eps, 36.71, 0.05),
        ("C_z", lips["C_z"], 538.9626, 0.5),
        ("C_v", lips["C_v"], 1.2134, 1e-3),
    ]
    ok = all(abs(val - ref) <= tol for _, val, ref, tol in checks)
    detail = ", ".join(f"{n}={val:.4f} (ref {ref})" for n, val, ref, _ in checks)
    report(3, ok, detail)


def test_c4_grid_certificate(aircraft_net, aircraft_cells):
    lips = aircraft_mod.aircraft_lipschitz(PARAMS)
    grid = GridSpec.symmetric([0.9e-3, 0.9e-3], [PARAMS.phi_bar, PARAMS.v_bar])

    def true_map(z1, v):
        return aircraft_mod.aircraft_phi(z1, v, PARAMS)

    cert = grid_error_certificate(true_map, aircraft_cells, aircraft_net, grid,
                                  lips["gamma_phi"])
    eps_bar = float(cert.eps_bar[0])
    rng = np.random.default_rng(99)
    pts = rng.uniform([-PARAMS.phi_bar, -PARAMS.v_bar],
                      [PARAMS.phi_bar, PARAMS.v_bar], size=(100_000, 2))
    off_grid_max = float(np.abs(true_map(*pts.T)
                                - forward(aircraft_net, pts)[:, 0]).max())
    ok = (cert.grid_points > 8.6e6 and abs(eps_bar - 0.1897) <= 0.02
          and cert.wall_time_s <= 120.0 and off_grid_max <= eps_bar)
    report(4, ok, f"{cert.grid_points} points, eps_bar={eps_bar:.4f} "
                  f"(ref 0.1897 +- 0.02), wall={cert.wall_time_s:.1f}s, "
                  f"off-grid max {off_grid_max:.4f} <= eps_bar")


def test_c5_taylor_table(aircraft_cells):
    union = build_admissible_union(aircraft_cells, u_max=4.0, eps=0.1897)
    lips = aircraft_mod.aircraft_lipschitz(PARAMS)

    def phi(zeta):
        return aircraft_mod.aircraft_phi(zeta[0], zeta[1], PARAMS)

    def grad(zeta):
        return np.array(aircraft_mod.aircraft_phi_grad(zeta[0], zeta[1], PARAMS))

    table = taylor_cell_bounds(phi, grad, union.pieces, lips["C_zeta"])
    rows = sorted(table, key=lambda t: -t.radius)
    expect = [(4.9177, 1325.2, 0.2006), (3.6495, 983.5, 0.1365),
              (3.6457, 982.5, 0.1379)]
    ok = all(abs(row.radius - r) <= 1e-2 and abs(row.eps_taylor - et) <= 1.0
             and abs(row.eps_vertices - eh) <= 1e-2
             for row, (r, et, eh) in zip(rows, expect))
    detail = "; ".join(
        f"r={row.radius:.4f}, epsT={row.eps_taylor:.1f}, epsH={row.eps_vertices:.4f}"
        for row in rows)
    report(5, ok, detail + " (Table ref: 4.9177/1325.2/0.2006, "
                  "3.6495/983.5/0.1365, 3.6457/982.5/0.1379)")


def test_c6_big_m(paper_cell2, aircraft_plant, aircraft_union):
    m_star = row_violations(paper_cell2, aircraft_plant.net_workspace).max()
    from flatpwa.miencoding import validate_big_m_override
    try:
        validate_big_m_override(aircraft_union, aircraft_plant.net_workspace,
                                5000.0)
        override_ok = True
    except ValueError:
        override_ok = False
    ok = abs(m_star - 4.3247) <= 1e-2 and override_ok
    report(6, ok, f"M* = {m_star:.4f} (ref 4.3247 +- 1e-2), "
                  f"uniform 5000 override validated: {override_ok}")


def test_c7_solver_oracle_equivalence(aircraft_union, aircraft_bigm,
                                      aircraft_plant):
    rng = np.random.default_rng(2024)
    A_d, B_d = rk4_discretize(aircraft_plant.A, aircraft_plant.B, 0.1)
    max_gap = 0.0
    verdicts_agree = True
    feasible = 0
    for _ in range(100):
        N_p = int(rng.integers(1, 4))
        z0 = rng.uniform([-0.45, -1.5], [0.45, 1.5])
        model = encode_horizon(aircraft_union, N_p, A_d, B_d, PAPER_Q, PAPER_R,
                               z0, aircraft_bigm,
                               state_rows=aircraft_plant.state_rows,
                               input_map=aircraft_plant.input_map)
        bb = solve_miqp(model)
        oracle = solve_by_cell_enumeration(model)
        if (bb.status == OPTIMAL) != (oracle.status == OPTIMAL):
            verdicts_agree = False
            break
        if bb.status == OPTIMAL:
            feasible += 1
            max_gap = max(max_gap, abs(bb.objective - oracle.objective))
    ok = verdicts_agree and max_gap <= 1e-5
    report(7, ok, f"100 instances (N_p in 1..3), {feasible} feasible, "
                  f"max |obj gap| = {max_gap:.2e} (<= 1e-5), "
                  f"verdicts agree: {verdicts_agree}")


def test_c8_closed_loop_mpc(aircraft_union, aircraft_bigm, aircraft_plant):
    spec = paper_mpc_spec(aircraft_plant)
    ctl = make_mpc_controller(spec, aircraft_union, aircraft_bigm)
    res = run_closed_loop(aircraft_plant, ctl, np.array([0.25, 0.0]),
                          T_sim=10.0, T_s=0.1, h=1e-3, union=aircraft_union)
    zs = np.array([r.z for r in res.records])
    norms = np.linalg.norm(zs, axis=1)
    converged = bool(np.any(norms <= 1e-2))
    t_conv = float(np.argmax(norms <= 1e-2)) * 0.1 if converged else np.inf
    ok = (res.input_violations == 0 and res.state_violations == 0
          and converged and len(res.records) == 100)
    report(8, ok, f"10 s run: {res.input_violations} input / "
                  f"{res.state_violations} state violations (true maps), "
                  f"||z|| <= 1e-2 at t = {t_conv:.1f} s")


def test_c9_clf_decrease(aircraft_union, aircraft_plant):
    spec = ClfSpec(P=PAPER_P, gamma=0.05, gain=PAPER_GAIN)
    ver = verify_clf(spec, aircraft_plant.A, aircraft_plant.B)
    rng = np.random.default_rng(31)
    T_s = 1e-3
    worst_dv = -np.inf
    reached_all = True
    tried = 0
    while tried < 20:
        z0 = rng.uniform([-0.2, -0.5], [0.2, 0.5])
        ctl = make_clf_controller(spec, aircraft_union, aircraft_plant.A,
                                  aircraft_plant.B,
                                  input_map=aircraft_plant.input_map)
        reached = []

        def until_origin(z, k, ctl=ctl, reached=reached):
            # the runner ends a run at the first ControllerInfeasible
            if np.linalg.norm(z) <= 1e-3:
                reached.append(k)
                raise ControllerInfeasible("reached the origin")
            return ctl(z, k)

        try:
            res = run_closed_loop(aircraft_plant, until_origin, z0, T_sim=8.0,
                                  T_s=T_s, h=T_s)
        except ControllerInfeasible:
            continue  # draw again: the state was not admissible
        tried += 1
        zs = np.array([r.z for r in res.records])
        Vs = np.einsum("ki,ij,kj->k", zs, PAPER_P, zs)
        norms = np.linalg.norm(zs, axis=1)
        dV = np.diff(Vs)
        active = norms[:-1] > 1e-3
        if active.any():
            worst_dv = max(worst_dv, float(dV[active].max()))
        # the run ends at the first sub-threshold state, before recording it
        reached_all &= bool(reached)
    ok = ver["pass"] and worst_dv < 1e-9 and reached_all
    report(9, ok, f"verify_clf pass={ver['pass']}; 20 trajectories at 1 kHz, "
                  f"worst dV = {worst_dv:.2e} (< 1e-9 slack)")


def test_c10_flmpc_contrast(aircraft_union, aircraft_bigm, aircraft_plant):
    spec = paper_mpc_spec(aircraft_plant)
    u_bar = PARAMS.u_max_scaled
    x = np.array([0.1, 0.8])
    fl_forecast_viol = 0
    fl_applied_bad = 0
    mi_forecast_viol = 0
    fl_structure = flmpc_structure(spec, aircraft_union)
    for k in range(60):
        z = aircraft_plant.to_flat(x)
        out = flmpc_step(fl_structure, aircraft_plant.phi, z)
        vals = [abs(aircraft_mod.aircraft_phi(out.z_forecast[i][0],
                                              out.v_forecast[i][0], PARAMS))
                for i in range(spec.N_p)]
        fl_forecast_viol += sum(v > u_bar + 1e-9 for v in vals)
        if abs(out.first_input_value[0]) > u_bar + 1e-6:
            fl_applied_bad += 1
        for _ in range(100):
            x = rk4_step(aircraft_plant.closed_loop_field, x, out.v, 1e-3)
    x = np.array([0.1, 0.8])
    mi_structure = mpc_structure(spec, aircraft_union, aircraft_bigm)
    for k in range(60):
        z = aircraft_plant.to_flat(x)
        out = mpc_step(spec, mi_structure, z)
        vals = [abs(aircraft_mod.aircraft_phi(out.z_forecast[i][0],
                                              out.v_forecast[i][0], PARAMS))
                for i in range(spec.N_p)]
        mi_forecast_viol += sum(v > u_bar + 1e-9 for v in vals)
        for _ in range(100):
            x = rk4_step(aircraft_plant.closed_loop_field, x, out.v, 1e-3)
    ok = fl_forecast_viol >= 1 and fl_applied_bad == 0 and mi_forecast_viol == 0
    report(10, ok, f"FL-MPC: {fl_forecast_viol} forecast-step bound violations "
                   f"(applied bad: {fl_applied_bad}); proposed MPC forecast "
                   f"violations: {mi_forecast_viol}")


def test_c11_performance_envelope(aircraft_union, aircraft_bigm, aircraft_plant,
                                  uav_net, uav_plant, pmsm_net, pmsm_plant):
    # aircraft: mean per-step solve time
    spec = paper_mpc_spec(aircraft_plant)
    ctl = make_mpc_controller(spec, aircraft_union, aircraft_bigm)
    res_air = run_closed_loop(aircraft_plant, ctl, np.array([0.25, 0.0]),
                              T_sim=10.0, T_s=0.1, h=1e-3)
    # uav tracking run
    uparams = uav_plant.extras["params"]
    d_uav = enumerate_cells(uav_net, uav_plant.net_workspace)
    U_uav = build_admissible_union(d_uav, u_max=uparams.u1_max,
                                   eps=DEFAULT_EPS["uav"],
                                   u_min=uparams.u1_min)
    bigm_uav = compute_big_m(U_uav, uav_plant.net_workspace)
    A_d, B_d = rk4_discretize(uav_plant.A, uav_plant.B, 0.1)
    z_ref, v_ref, x0 = uav_mod.turn_reference(T_s=0.1)
    N_p = 35

    def refs(k):
        return (np.array([z_ref(k + i) for i in range(N_p)]),
                np.array([v_ref(k + i) for i in range(N_p)]))

    def ref_cells(k):
        return [locate_cell(U_uav, uav_plant.input_map
                            @ np.concatenate([z_ref(k + i), v_ref(k + i)]))
                for i in range(N_p)]

    uav_spec = MpcSpec(Q=np.eye(4), R=0.1 * np.eye(2), N_p=N_p,
                       A_d=A_d, B_d=B_d, state_rows=uav_plant.state_rows,
                       input_rows=uav_mod.accel_polygon(uparams),
                       input_map=uav_plant.input_map,
                       budget=SolveBudget(max_nodes=0),
                       fallback_budget=SolveBudget(max_nodes=40, max_ms=20000))
    ctl_uav = make_mpc_controller(uav_spec, U_uav, bigm_uav, refs=refs,
                                  ref_cells=ref_cells)
    res_uav = run_closed_loop(uav_plant, ctl_uav, x0, T_sim=8.0, T_s=0.1,
                              h=1e-3, union=U_uav)
    # pmsm stabilization run (low input cost case)
    pparams = pmsm_plant.extras["params"]
    d_pm = enumerate_cells(pmsm_net, pmsm_plant.net_workspace)
    U_pm = build_admissible_union(d_pm, u_max=pparams.u_bound,
                                  eps=np.array([1.0, 0.76]))
    bigm_pm = compute_big_m(U_pm, pmsm_plant.net_workspace)
    A_d, B_d = rk4_discretize(pmsm_plant.A, pmsm_plant.B, 0.05)
    pm_spec = MpcSpec(Q=np.diag([100.0, 10.0, 0.01]), R=1e-4 * np.eye(2),
                      N_p=5, A_d=A_d, B_d=B_d,
                      state_rows=pmsm_plant.state_rows,
                      input_map=pmsm_plant.input_map,
                      budget=SolveBudget(max_nodes=300, max_ms=2000))

    def pm_refs(k):
        return (np.tile(pmsm_plant.equilibrium_z, (5, 1)), np.zeros((5, 2)))

    ctl_pm = make_mpc_controller(pm_spec, U_pm, bigm_pm, refs=pm_refs)
    res_pm = run_closed_loop(pmsm_plant, ctl_pm, np.zeros(3), T_sim=4.0,
                             T_s=0.05, h=1e-3, union=U_pm)
    ok = (res_air.mean_solver_ms <= 100.0
          and res_air.input_violations == res_air.state_violations == 0
          and res_uav.infeasible_at is None
          and res_uav.input_violations == res_uav.state_violations == 0
          and res_pm.infeasible_at is None
          and res_pm.input_violations == res_pm.state_violations == 0)
    report(11, ok, f"aircraft mean {res_air.mean_solver_ms:.1f} ms/step "
                   f"(<= 100); UAV {len(res_uav.records)} steps "
                   f"(mean {res_uav.mean_solver_ms:.0f} ms, 0 violations: "
                   f"{res_uav.input_violations == 0}); PMSM "
                   f"{len(res_pm.records)} steps (mean "
                   f"{res_pm.mean_solver_ms:.0f} ms, 0 violations: "
                   f"{res_pm.input_violations == 0})")


def test_c12_linearization_identity(aircraft_plant, uav_plant, pmsm_plant,
                                    rk4_integrate):
    h = 1e-4
    errs = {}
    cases = {
        "aircraft": (np.array([0.1, -0.2]),
                     lambda t: np.array([2.0 * math.sin(3.0 * t)])),
        "uav": (np.array([0.0, 0.0, 0.4, 16.0]),
                lambda t: np.array([1.5 * math.sin(2.0 * t),
                                    -1.0 * math.cos(t)])),
        "pmsm": (np.array([0.05, 0.002, 0.1]),
                 lambda t: np.array([0.3 * math.sin(2.0 * t),
                                     0.2 * math.cos(3.0 * t)])),
    }
    for plant in (aircraft_plant, uav_plant, pmsm_plant):
        x0, vfun = cases[plant.name]
        _, xs = rk4_integrate(lambda x, v: plant.closed_loop_field(x, v), x0,
                              vfun, T=1.0, h=h)
        z0 = plant.to_flat(x0)
        z = z0.copy()
        z_lin = [z.copy()]
        for k in range(int(round(1.0 / h))):
            f = lambda x, u: plant.A @ x + plant.B @ np.atleast_1d(u)
            z = rk4_step(f, z, vfun(k * h), h)
            z_lin.append(z.copy())
        z_lin = np.array(z_lin)
        z_nl = np.array([plant.to_flat(x) for x in xs])
        scale = max(1.0, float(np.abs(z_lin).max()))
        errs[plant.name] = float(np.abs(z_nl - z_lin).max() / scale)
    ok = all(e <= 1e-6 for e in errs.values())
    report(12, ok, "relative flatness-identity errors over 1 s: "
                   f"{ {k: f'{v:.2e}' for k, v in errs.items()} } (<= 1e-6)")
