"""The closed-loop fields run on floats; their array forms are kept here as
the reference. Every plant must land on the same state, bit for bit, after
one sample interval of RK4 substeps, and apply the same true inputs."""

import math

import numpy as np
import pytest

from flatpwa.plants.aircraft import FORCE_SCALE
from flatpwa.plants.pmsm import pmsm_from_flat
from flatpwa.simulate import rk4_step

PAIRS = 200
SUBSTEP = 1e-3


def array_rk4_step(f, x, u, h):
    k1 = f(x, u)
    k2 = f(x + 0.5 * h * k1, u)
    k3 = f(x + 0.5 * h * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def aircraft_reference(params):
    """(field, true inputs) as f(x, phi(to_flat(x), v)) on arrays."""

    def lift(z1):
        return params.l0 + params.l1 * z1 - params.l3 * z1 ** 3

    def f(x, u):
        u_newton = np.atleast_1d(u)[0] * FORCE_SCALE
        phidd = (-params.d1 * lift(x[0]) + u_newton * params.d2) \
            / params.J * math.cos(x[0])
        return np.array([x[1], phidd])

    def phi(z, v):
        z1, v1 = z[0], np.atleast_1d(v)[0]
        c = np.cos(z1)
        if np.any(c <= 1e-6):
            raise ValueError("cos(z1) too small")
        u = (v1 * params.J / c + params.d1 * lift(z1)) / params.d2
        return np.atleast_1d(u / FORCE_SCALE)

    def to_flat(x):
        return np.asarray(x, dtype=float).copy()

    return (lambda x, v: f(x, phi(to_flat(x), v)),
            lambda x, v: phi(to_flat(x), v))


def pmsm_reference(params):
    RL = params.R / params.L

    def f(x, u):
        u = np.atleast_1d(u)
        return np.array([
            -RL * x[0] + x[1] * x[2] / params.J_m + u[0],
            -x[2] * (params.Y + x[0]) / params.J_m - RL * x[1] + u[1],
            (params.Y / params.L) * x[1],
        ])

    def to_flat(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0], x[2], (params.Y / params.L) * x[1]])

    def phi(z, v):
        z = np.asarray(z, dtype=float)
        v = np.atleast_1d(np.asarray(v, dtype=float))
        u1 = v[0] + (params.R / params.L) * z[0] \
            - (params.L / (params.J_m * params.Y)) * z[1] * z[2]
        u2 = (params.L / params.Y) * v[1] + z[1] * (params.Y + z[0]) / params.J_m \
            + (params.R / params.Y) * z[2]
        return np.array([u1, u2])

    return (lambda x, v: f(x, phi(to_flat(x), v)),
            lambda x, v: phi(to_flat(x), v))


def uav_reference(params):
    def f(x, u):
        x1, x2, heading, speed = x
        w1, u2 = np.atleast_1d(u)
        return np.array([
            speed * math.cos(heading),
            speed * math.sin(heading),
            params.g * u2 / speed,
            w1,
        ])

    def field(x, v):
        heading = x[2]
        c, s = math.cos(heading), math.sin(heading)
        w1 = v[0] * c + v[1] * s
        u2 = (v[1] * c - v[0] * s) / params.g
        return f(x, np.array([w1, u2]))

    def true_inputs(x, v):
        heading, speed = x[2], x[3]
        c, s = math.cos(heading), math.sin(heading)
        u2 = (v[1] * c - v[0] * s) / params.g
        return np.array([speed, u2])

    return field, true_inputs


def aircraft_pairs(params, rng):
    lo = [-params.phi_bar, -2.0, -params.v_bar]
    hi = [params.phi_bar, 2.0, params.v_bar]
    for z1, z2, v in rng.uniform(lo, hi, size=(PAIRS, 3)):
        yield np.array([z1, z2]), np.array([v])


def pmsm_pairs(params, rng):
    lo = list(params.z_lower) + [-params.v_bound] * 2
    hi = list(params.z_upper) + [params.v_bound] * 2
    for p in rng.uniform(lo, hi, size=(PAIRS, 5)):
        yield pmsm_from_flat(p[:3], params), p[3:]


def uav_pairs(params, rng):
    pb, lo, hi, r = (params.position_bound, params.velocity_lo,
                     params.velocity_hi, params.accel_radius)
    for x1, x2, z2, z4, v1, v2 in rng.uniform([-pb, -pb, lo, lo, -r, -r],
                                             [pb, pb, hi, hi, r, r],
                                             size=(PAIRS, 6)):
        yield (np.array([x1, x2, math.atan2(z4, z2), math.hypot(z2, z4)]),
               np.array([v1, v2]))


CASES = {
    "aircraft": (aircraft_reference, aircraft_pairs, 0.1),
    "pmsm": (pmsm_reference, pmsm_pairs, 0.05),
    "uav": (uav_reference, uav_pairs, 0.1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_field_matches_the_array_reference(name, request):
    plant = request.getfixturevalue(f"{name}_plant")
    params = plant.extras["params"]
    reference, pairs, T_s = CASES[name]
    ref_field, ref_inputs = reference(params)
    sub = int(round(T_s / SUBSTEP))
    rng = np.random.default_rng(sum(map(ord, name)))
    count = 0
    for x0, v in pairs(params, rng):
        xs, vs = x0.tolist(), v.tolist()
        u = plant.true_inputs(xs, vs)
        assert isinstance(u, tuple)
        assert np.array_equal(np.array(u), ref_inputs(x0, v))
        x_ref = x0
        for _ in range(sub):
            x_ref = array_rk4_step(ref_field, x_ref, v, SUBSTEP)
            xs = rk4_step(plant.closed_loop_field, xs, vs, SUBSTEP)
        assert np.array_equal(np.array(xs), x_ref), (x0, v)
        count += 1
    assert count == PAIRS


def test_field_returns_a_tuple_of_floats(aircraft_plant, pmsm_plant, uav_plant):
    for plant, x, v in ((aircraft_plant, [0.1, -0.2], [1.0]),
                        (pmsm_plant, [0.05, 0.001, 0.1], [0.3, -0.2]),
                        (uav_plant, [0.0, 0.0, 0.4, 16.0], [1.0, -0.5])):
        xdot = plant.closed_loop_field(x, v)
        assert isinstance(xdot, tuple) and len(xdot) == plant.n
        assert all(type(a) is float for a in xdot)


@pytest.mark.parametrize("z1", [math.pi / 2, -math.pi / 2, 2.0, math.acos(1e-7)])
def test_aircraft_field_rejects_a_vanishing_cosine(aircraft_plant, z1):
    ref_field, _ = aircraft_reference(aircraft_plant.extras["params"])
    with pytest.raises(ValueError):
        ref_field(np.array([z1, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        aircraft_plant.closed_loop_field([z1, 0.0], [0.0])
    with pytest.raises(ValueError):
        aircraft_plant.true_inputs([z1, 0.0], [0.0])


def test_aircraft_field_accepts_a_cosine_just_above_the_limit(aircraft_plant):
    z1 = math.acos(2e-6)
    ref_field, _ = aircraft_reference(aircraft_plant.extras["params"])
    assert np.array_equal(np.array(aircraft_plant.closed_loop_field([z1, 0.0], [0.0])),
                          ref_field(np.array([z1, 0.0]), np.array([0.0])))
