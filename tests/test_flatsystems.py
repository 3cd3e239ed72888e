import math

import numpy as np
import pytest

from flatpwa.plants.aircraft import (AircraftParams, aircraft_lipschitz,
                                     aircraft_phi, aircraft_phi_grad)
from flatpwa.plants.pmsm import (PmsmParams, pmsm_from_flat, pmsm_phi,
                                 pmsm_to_flat)
from flatpwa.plants.uav import UavParams, accel_polygon, uav_phi
from flatpwa.polytope import vertices
from flatpwa.simulate import (ControllerInfeasible, rk4_discretize, rk4_step,
                              run_closed_loop)

PARAMS = AircraftParams()


def test_aircraft_stall_angle():
    assert PARAMS.phi_stall == pytest.approx(0.2566, abs=1e-3)
    assert PARAMS.u_max_scaled == 5.0


def test_aircraft_phi_origin():
    # d1 * l0 / (d2 * 1e5)
    assert aircraft_phi(0.0, 0.0) == pytest.approx(0.2381, abs=1e-4)


def test_aircraft_phi_grad_origin():
    dz, dv = aircraft_phi_grad(0.0, 0.0)
    assert dv == pytest.approx(1.0714, abs=1e-3)
    # finite-difference cross-check of both partials at a generic point
    z1, v = 0.17, -2.3
    eps = 1e-6
    fd_z = (aircraft_phi(z1 + eps, v) - aircraft_phi(z1 - eps, v)) / (2 * eps)
    fd_v = (aircraft_phi(z1, v + eps) - aircraft_phi(z1, v - eps)) / (2 * eps)
    gz, gv = aircraft_phi_grad(z1, v)
    assert gz == pytest.approx(fd_z, rel=1e-6)
    assert gv == pytest.approx(fd_v, rel=1e-6)


def test_aircraft_phi_domain_guard():
    with pytest.raises(ValueError):
        aircraft_phi(math.pi / 2, 0.0)


def test_aircraft_lipschitz_published_values():
    lips = aircraft_lipschitz(PARAMS)
    assert lips["gamma_phi"] == pytest.approx(29.42, abs=0.05)
    assert lips["C_z"] == pytest.approx(538.9626, abs=0.5)
    assert lips["C_v"] == pytest.approx(1.2134, abs=1e-3)
    assert lips["C_zeta"] == lips["C_z"]


def test_aircraft_lipschitz_bound_chain():
    lips = aircraft_lipschitz(PARAMS)
    rng = np.random.default_rng(4)
    lo = np.array([-PARAMS.phi_bar, -PARAMS.v_bar])
    hi = -lo
    A = rng.uniform(lo, hi, size=(10_000, 2))
    B = rng.uniform(lo, hi, size=(10_000, 2))
    fa = aircraft_phi(A[:, 0], A[:, 1], PARAMS)
    fb = aircraft_phi(B[:, 0], B[:, 1], PARAMS)
    assert np.all(np.abs(fa - fb)
                  <= lips["gamma_phi"] * np.linalg.norm(A - B, axis=1) + 1e-12)
    gza, gva = aircraft_phi_grad(A[:, 0], A[:, 1], PARAMS)
    gzb, gvb = aircraft_phi_grad(B[:, 0], B[:, 1], PARAMS)
    l1 = np.abs(A - B).sum(axis=1)
    assert np.all(np.abs(gza - gzb) <= lips["C_z"] * l1 + 1e-12)
    assert np.all(np.abs(gva - gvb) <= lips["C_v"] * l1 + 1e-12)


def _linear_response(A, B, z0, v_of_t, T, h):
    z = np.asarray(z0, dtype=float).copy()
    out = [z.copy()]
    steps = int(round(T / h))
    for k in range(steps):
        t = k * h
        f = lambda x, u: A @ x + B @ np.atleast_1d(u)
        z = rk4_step(f, z, v_of_t(t), h)
        out.append(z.copy())
    return np.array(out)


@pytest.mark.parametrize("plant_fixture,z0,vfun", [
    ("aircraft_plant", [0.1, -0.2], lambda t: np.array([2.0 * math.sin(3 * t)])),
    ("uav_plant", None, lambda t: np.array([1.5 * math.sin(2 * t),
                                            -1.0 * math.cos(t)])),
    ("pmsm_plant", [0.05, 0.08, 0.1], lambda t: np.array([0.3 * math.sin(2 * t),
                                                          0.2 * math.cos(3 * t)])),
])
def test_linearization_identity(plant_fixture, z0, vfun, request, rk4_integrate):
    plant = request.getfixturevalue(plant_fixture)
    if plant.name == "uav":
        x0 = np.array([0.0, 0.0, 0.3, 15.0])
        z0 = plant.to_flat(x0)
    elif plant.name == "pmsm":
        z0 = np.asarray(z0, dtype=float)
        x0 = pmsm_from_flat(z0)
    else:
        z0 = np.asarray(z0, dtype=float)
        x0 = z0.copy()
    h = 1e-4
    _, xs = rk4_integrate(lambda x, v: plant.closed_loop_field(x, v), x0,
                          vfun, T=1.0, h=h)
    z_nl = np.array([plant.to_flat(x) for x in xs])
    z_lin = _linear_response(plant.A, plant.B, z0, vfun, T=1.0, h=h)
    scale = max(1.0, np.abs(z_lin).max())
    assert np.abs(z_nl - z_lin).max() / scale <= 1e-6


def test_uav_straight_level_flight():
    z = np.array([0.0, 15.0, 0.0, 0.0])
    u = uav_phi(z, np.zeros(2))
    assert u[0] == pytest.approx(15.0)
    assert u[1] == pytest.approx(0.0, abs=1e-12)


def test_uav_bank_bound_tight_on_circle():
    # with ||v|| = u2_max * g the bank tangent never exceeds u2_max
    params = UavParams()
    rng = np.random.default_rng(6)
    for _ in range(200):
        heading = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(10.0, 26.0)
        z = np.array([0.0, speed * np.cos(heading), 0.0, speed * np.sin(heading)])
        ang = rng.uniform(0, 2 * np.pi)
        v = params.accel_radius * np.array([np.cos(ang), np.sin(ang)])
        u = uav_phi(z, v, params)
        assert abs(u[1]) <= params.u2_max + 1e-12


def test_uav_polygon_inner_approximation():
    params = UavParams()
    assert params.accel_radius == pytest.approx(5.664, abs=1e-3)
    poly = accel_polygon(params, 16)
    V = vertices(poly)
    assert len(V) == 16
    assert np.all(np.linalg.norm(V.points, axis=1)
                  <= params.accel_radius + 1e-9)
    # polygon vertices coincide with the circle samples
    assert np.allclose(sorted(np.linalg.norm(V.points, axis=1)),
                       params.accel_radius, atol=1e-9)


def test_uav_zero_speed_error():
    with pytest.raises(ValueError):
        uav_phi(np.zeros(4), np.ones(2))


def test_pmsm_equilibrium_maps():
    params = PmsmParams()
    z = pmsm_to_flat(params.x_eq, params)
    assert np.allclose(z, params.z_eq, atol=1e-12)
    u = pmsm_phi(params.z_eq, np.zeros(2), params)
    assert np.allclose(u, params.u_eq, atol=1e-2)
    assert np.allclose(pmsm_phi(np.zeros(3), np.zeros(2), params), 0.0)


def test_pmsm_flat_map_bijection():
    params = PmsmParams()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.normal(size=3)
        assert np.abs(pmsm_from_flat(pmsm_to_flat(x, params), params)
                      - x).max() <= 1e-12
        z = rng.normal(size=3)
        assert np.abs(pmsm_to_flat(pmsm_from_flat(z, params), params)
                      - z).max() <= 1e-12


def test_rk4_discretize_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    A_d, B_d = rk4_discretize(A, B, 0.1)
    assert np.allclose(A_d, [[1.0, 0.1], [0.0, 1.0]])
    assert np.allclose(B_d.ravel(), [0.005, 0.1])


def test_rk4_constant_field(rk4_integrate):
    ts, xs = rk4_integrate(lambda x, u: np.zeros(2), np.array([1.0, -2.0]),
                           lambda t: 0.0, T=1.0, h=0.01)
    assert np.allclose(xs, xs[0])
    assert ts[-1] == pytest.approx(1.0)


def test_rk4_step_validation(rk4_integrate):
    with pytest.raises(ValueError):
        rk4_integrate(lambda x, u: x, np.ones(1), lambda t: 0.0, T=1.0, h=0.3)


def test_closed_loop_hold_repeats_previous_input(aircraft_plant):
    T_s = 0.1

    def controller(z, k):
        if k == 2:
            raise ControllerInfeasible("no admissible input")
        return np.array([0.1 * (k + 1)]), 1.0, {}

    held = run_closed_loop(aircraft_plant, controller, np.zeros(2), T_sim=0.5,
                           T_s=T_s, on_infeasible="hold")
    assert held.infeasible_at is None and len(held.records) == 5
    assert np.array_equal(held.records[2].v, held.records[1].v)
    assert held.records[2].solver_ms == 0.0
    raised = run_closed_loop(aircraft_plant, controller, np.zeros(2), T_sim=0.5,
                             T_s=T_s)
    assert raised.infeasible_at == 2 * T_s and len(raised.records) == 2
