"""Planar fixed-wing UAV.

Kinematic model with airspeed u1 and bank-angle tangent u2,

    x1d = u1 cos x3,  x2d = u1 sin x3,  x3d = g u2 / u1,

flat in the positions. The flat state is z = (x1, x1d, x2, x2d) and the
inputs recover as

    u1 = sqrt(z2^2 + z4^2),     u2 = (v2 z2 - v1 z4) / (g u1).

Because the airspeed is an input of the kinematic model, the simulated
plant is the dynamic extension with the speed as a fourth state and its
rate as an internal input; the constrained quantities stay (u1, u2).

Constraints: u1 in [u1_min, u1_max] handled through the ReLU surrogate of
the speed map on (z2, z4); |u2| <= u2_max handled exactly by an inscribed
polygon of the acceleration disk ||v|| <= u2_max * g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..polytope import HPolytope
from .base import FlatPlant

GRAVITY = 9.81


@dataclass(frozen=True)
class UavParams:
    u1_min: float = 10.0       # m/s
    u1_max: float = 26.0       # m/s
    u2_max: float = 0.5774     # tan(30 deg)
    g: float = GRAVITY
    # workspace box on (z2, z4); offset from the origin because the surrogate
    # is only enumerated/certified over the demo's first-quadrant flight
    # envelope (turn-then-hold at 18 m/s)
    velocity_lo: float = 3.0
    velocity_hi: float = 21.0
    position_bound: float = 400.0  # state rows on (z1, z3)

    @property
    def accel_radius(self):
        return self.u2_max * self.g


def uav_phi(z, v, params: UavParams = UavParams()):
    """(u1, u2) from the flat state and input as a tuple of floats; needs
    nonzero speed."""
    speed = math.hypot(z[1], z[3])
    if speed <= 1e-12:
        raise ValueError("zero speed: u2 is undefined")
    u2 = (v[1] * z[1] - v[0] * z[3]) / (params.g * speed)
    return (speed, u2)


def speed_map(z2, z4):
    """True Phi1 on the network input (z2, z4); coordinates broadcast."""
    return np.hypot(z2, z4)


def accel_polygon(params: UavParams = UavParams(), num_sides: int = 16) -> HPolytope:
    """Inscribed polygon of the disk ||v|| <= u2_max * g (inner approximation:
    vertices on the circle, facets inside)."""
    if num_sides < 3:
        raise ValueError("polygon needs at least 3 sides")
    r = params.accel_radius
    mids = 2.0 * np.pi * (np.arange(num_sides) + 0.5) / num_sides
    A = np.column_stack([np.cos(mids), np.sin(mids)])
    b = np.full(num_sides, r * math.cos(math.pi / num_sides))
    return HPolytope(A, b)


def velocity_workspace(params: UavParams = UavParams()) -> HPolytope:
    lo, hi = params.velocity_lo, params.velocity_hi
    return HPolytope.box([lo, lo], [hi, hi])


def make_plant(params: UavParams = UavParams()) -> FlatPlant:
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    B = np.zeros((4, 2))
    B[1, 0] = 1.0
    B[3, 1] = 1.0

    # extended simulation state: (x1, x2, heading, speed); inputs (w1, u2)
    def f(x, u):
        x1, x2, heading, speed = x
        w1, u2 = u
        return (
            speed * math.cos(heading),
            speed * math.sin(heading),
            params.g * u2 / speed,
            w1,
        )

    def to_flat(x):
        x1, x2, heading, speed = x
        return np.array([x1, speed * math.cos(heading),
                         x2, speed * math.sin(heading)])

    def phi(z, v):
        return uav_phi(z, v, params)

    def extended_inputs(x, v):
        """(w1, u2) realising the flat input v at heading x3."""
        heading = x[2]
        c, s = math.cos(heading), math.sin(heading)
        return v[0] * c + v[1] * s, (v[1] * c - v[0] * s) / params.g

    def closed_loop_field(x, v):
        return f(x, extended_inputs(x, v))

    def true_inputs(x, v):
        return (x[3], extended_inputs(x, v)[1])

    input_map = np.zeros((2, 6))
    input_map[0, 1] = 1.0   # z2
    input_map[1, 3] = 1.0   # z4
    pb = params.position_bound
    vlo, vhi = params.velocity_lo, params.velocity_hi
    state_rows = HPolytope.box([-pb, vlo, -pb, vlo], [pb, vhi, pb, vhi])
    return FlatPlant(
        name="uav",
        n=4, m=2, n_z=4,
        A=A, B=B,
        to_flat=to_flat,
        phi=phi,
        closed_loop_field=closed_loop_field,
        true_inputs=true_inputs,
        u_min=np.array([params.u1_min, -params.u2_max]),
        u_max=np.array([params.u1_max, params.u2_max]),
        net_workspace=velocity_workspace(params),
        input_map=input_map,
        state_rows=state_rows,
        extras={"params": params},
    )


def turn_reference(radius: float = 150.0, speed: float = 18.0, T_s: float = 0.1,
                   theta0: float = math.radians(15.0),
                   theta1: float = math.radians(75.0)):
    """Constant-speed circular arc followed by a straight hold.

    The path heading runs from theta0 to theta1 along a circle of the given
    radius and then stays constant, so the velocity (z2, z4) remains inside
    the documented workspace box for the whole run including the forecast
    horizon. Returns z_ref(k), v_ref(k) closures and the on-path initial
    plant state.
    """
    omega = speed / radius
    t_arc = (theta1 - theta0) / omega

    def pose(t):
        if t <= t_arc:
            a = theta0 + omega * t
            pos = radius * np.array([math.sin(a), -math.cos(a)])
            vel = speed * np.array([math.cos(a), math.sin(a)])
            acc = speed * omega * np.array([-math.sin(a), math.cos(a)])
        else:
            a = theta1
            vel = speed * np.array([math.cos(a), math.sin(a)])
            pos = radius * np.array([math.sin(a), -math.cos(a)]) + (t - t_arc) * vel
            acc = np.zeros(2)
        return pos, vel, acc

    def z_ref(k):
        pos, vel, _ = pose(k * T_s)
        return np.array([pos[0], vel[0], pos[1], vel[1]])

    def v_ref(k):
        return pose(k * T_s)[2]

    pos0, vel0, _ = pose(0.0)
    x0 = np.array([pos0[0], pos0[1], math.atan2(vel0[1], vel0[0]), speed])
    return z_ref, v_ref, x0
