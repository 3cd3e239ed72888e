"""Longitudinal aircraft model.

Angle-of-attack dynamics with a cubic lift curve,

    phidd = (1/J) * (-d1 * L(phi) + u * d2) * cos(phi),
    L(phi) = l0 + l1 phi - l3 phi^3,

flat in z = (phi, phid) with v = phidd and the linearizing elevator force

    u = (v J / cos(z1) + d1 L(z1)) / d2.

All forces (u, the input bound, L) are expressed in units of 1e5 N; this is
the only scaling under which the published Lipschitz constants, the
approximation error and the input bound are mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..polytope import HPolytope
from .base import FlatPlant

FORCE_SCALE = 1e5


@dataclass(frozen=True)
class AircraftParams:
    l0: float = 2.5e5        # N
    l1: float = 8.6e6        # N/rad
    l3: float = 4.35e7       # N/rad^3
    J: float = 4.5e6         # N m^2
    u_max: float = 5e5       # N
    d1: float = 4.0          # m
    d2: float = 42.0         # m
    # workspace bounds; 0.349 rad is the rounded print of 20 deg, and the
    # published Lipschitz constants only reproduce at exactly 20 deg
    phi_bar: float = math.radians(20.0)
    v_bar: float = 5.0       # rad/s^2

    @property
    def phi_stall(self):
        return math.sqrt(self.l1 / (3.0 * self.l3))

    @property
    def u_max_scaled(self):
        return self.u_max / FORCE_SCALE


_COS_RANGE = "cos(z1) too small: outside the model's validity range"


def lift(params: AircraftParams, z1):
    return params.l0 + params.l1 * z1 - params.l3 * z1 ** 3


def _input(params: AircraftParams, z1, v, c):
    """Phi(z1, v) in 1e5 N units given c = cos(z1); floats or arrays."""
    u = (v * params.J / c + params.d1 * lift(params, z1)) / params.d2
    return u / FORCE_SCALE


def aircraft_phi(z1, v, params: AircraftParams = AircraftParams()):
    """Linearizing input u(z1, v) in 1e5 N units; coordinates broadcast."""
    c = np.cos(z1)
    if np.any(c <= 1e-6):
        raise ValueError(_COS_RANGE)
    return _input(params, z1, v, c)


def aircraft_phi_grad(z1, v, params: AircraftParams = AircraftParams()):
    """(dPhi/dz1, dPhi/dv) in 1e5 N units."""
    c = np.cos(z1)
    if np.any(c <= 1e-6):
        raise ValueError(_COS_RANGE)
    s = np.sin(z1)
    dz = (params.d1 * (params.l1 - 3.0 * params.l3 * z1 ** 2)
          + params.J * v * s / c ** 2) / params.d2
    dv = params.J / (params.d2 * c)
    return dz / FORCE_SCALE, dv / FORCE_SCALE


def aircraft_lipschitz(params: AircraftParams = AircraftParams(),
                       phi_bar=None, v_bar=None) -> dict:
    """Analytic Lipschitz data over {|z1| <= phi_bar, |v| <= v_bar}.

    Returns a, b, gamma_phi for the map itself and C_z, C_v, C_zeta for its
    gradient, all in 1e5 N units. C_z keeps the printed form of the source
    derivation (the J*v_bar term is not divided by d2), which is the variant
    consistent with the published value; C_zeta = max(C_z, C_v).
    """
    phi_bar = params.phi_bar if phi_bar is None else phi_bar
    v_bar = params.v_bar if v_bar is None else v_bar
    c = math.cos(phi_bar)
    s = math.sin(phi_bar)
    J = params.J / FORCE_SCALE
    l1 = params.l1 / FORCE_SCALE
    l3 = params.l3 / FORCE_SCALE
    a = J / (params.d2 * c)
    b = (v_bar * J / c ** 2 + params.d1 * (l1 + 3.0 * l3 * phi_bar ** 2)) / params.d2
    gamma_phi = math.hypot(a, b)
    C_z = max(J * s / (params.d2 * c ** 2),
              6.0 * params.d1 * l3 * phi_bar / params.d2
              + J * v_bar * (1.0 / c ** 2 + 2.0 * s / c ** 4))
    C_v = J / (params.d2 * c ** 2)
    return {
        "a": a,
        "b": b,
        "gamma_phi": gamma_phi,
        "C_z": C_z,
        "C_v": C_v,
        "C_zeta": max(C_z, C_v),
    }


def dynamics(params: AircraftParams):
    """Vector field f(x, u) on floats, x = (phi, phid) and u in 1e5 N units."""

    def f(x, u):
        u_newton = u[0] * FORCE_SCALE
        phidd = (-params.d1 * lift(params, x[0]) + u_newton * params.d2) \
            / params.J * math.cos(x[0])
        return (x[1], phidd)

    return f


def workspace(params: AircraftParams = AircraftParams()) -> HPolytope:
    """Enumeration workspace in the network-input space (z1, v)."""
    return HPolytope.box([-params.phi_bar, -params.v_bar],
                         [params.phi_bar, params.v_bar])


def make_plant(params: AircraftParams = AircraftParams()) -> FlatPlant:
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    f = dynamics(params)

    def to_flat(x):
        return np.asarray(x, dtype=float).copy()

    def phi(z, v):
        c = math.cos(z[0])
        if c <= 1e-6:
            raise ValueError(_COS_RANGE)
        return (_input(params, z[0], v[0], c),)

    def phi_grad(z, v):
        return aircraft_phi_grad(z[0], np.atleast_1d(v)[0], params)

    # the flat state is x itself
    def closed_loop_field(x, v):
        return f(x, phi(x, v))

    # the network only sees (z1, v); z2 passes through untouched
    input_map = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    state_rows = HPolytope(np.array([[1.0, 0.0]]), np.array([params.phi_stall]))
    return FlatPlant(
        name="aircraft",
        n=2, m=1, n_z=2,
        A=A, B=B,
        to_flat=to_flat,
        phi=phi,
        closed_loop_field=closed_loop_field,
        true_inputs=phi,
        u_min=np.array([-params.u_max_scaled]),
        u_max=np.array([params.u_max_scaled]),
        net_workspace=workspace(params),
        input_map=input_map,
        state_rows=state_rows,
        phi_grad=phi_grad,
        equilibrium_z=np.zeros(2),
        equilibrium_v=np.zeros(1),
        extras={"params": params},
    )
