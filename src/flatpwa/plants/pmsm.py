"""Permanent-magnet synchronous motor.

States are the two stator fluxes and the mechanical momentum,

    x1d = -(R/L) x1 + x2 x3 / J_m + u1
    x2d = -x3 (Y + x1) / J_m - (R/L) x2 + u2
    x3d = (Y/L) x2,

flat in (x1, x3). Coordinate change z = (x1, x3, (Y/L) x2) gives the chain
z1d = v1, z2d = z3, z3d = v2 with the input transformation

    u1 = v1 + (R/L) z1 - (L/(J_m Y)) z2 z3
    u2 = (L/Y) v2 + z2 (Y + z1) / J_m + (R/Y) z3.

The z3 term in u2 carries the stator resistance; dropping R there breaks
the exact-linearization identity (the equilibrium checks cannot see this
because z3 vanishes there).

The surrogate network takes the full (z, v) but its two leading neurons are
always active on the workspace and reproduce the exact affine v terms, so
the approximation error is independent of v and is certified on a grid over
the z-box alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..polytope import HPolytope
from .base import FlatPlant


@dataclass(frozen=True)
class PmsmParams:
    J_m: float = 0.012       # kg m^2
    L: float = 0.0038        # H (printed "mH" treated as a unit typo)
    R: float = 0.225         # ohm
    Y: float = 0.17          # Wb, rotor flux
    u_bound: float = 6.0     # |u_i| <= u_bound, both channels
    # documented workspace around the equilibrium
    z_lower: tuple = (-0.06, -0.06, -0.9)
    z_upper: tuple = (0.16, 0.26, 0.9)
    v_bound: float = 5.0

    @property
    def x_eq(self):
        return np.array([0.0507, 0.0, 0.1084])

    @property
    def u_eq(self):
        return np.array([3.0, 1.9941])

    @property
    def z_eq(self):
        return np.array([0.0507, 0.1084, 0.0])


def pmsm_to_flat(x, params: PmsmParams = PmsmParams()):
    """z = (x1, x3, (Y/L) x2) as a tuple of floats."""
    return (x[0], x[2], (params.Y / params.L) * x[1])


def pmsm_from_flat(z, params: PmsmParams = PmsmParams()):
    z = np.asarray(z, dtype=float)
    return np.array([z[0], (params.L / params.Y) * z[2], z[1]])


def pmsm_phi(z, v, params: PmsmParams = PmsmParams()):
    """(u1, u2) as a tuple of floats."""
    u1 = v[0] + (params.R / params.L) * z[0] \
        - (params.L / (params.J_m * params.Y)) * z[1] * z[2]
    u2 = (params.L / params.Y) * v[1] + z[1] * (params.Y + z[0]) / params.J_m \
        + (params.R / params.Y) * z[2]
    return (u1, u2)


def pmsm_state_part(z1, z2, z3, params: PmsmParams = PmsmParams()):
    """Phi at v = 0, the part the network must learn; coordinates broadcast,
    the two outputs along a new last axis."""
    u1 = (params.R / params.L) * z1 - (params.L / (params.J_m * params.Y)) * z2 * z3
    u2 = z2 * (params.Y + z1) / params.J_m + (params.R / params.Y) * z3
    return np.stack([u1, u2], axis=-1)


def state_part_lipschitz(params: PmsmParams = PmsmParams()):
    """Per-output Lipschitz constants of the v = 0 map over the z-box."""
    c = params.L / (params.J_m * params.Y)
    z2 = max(abs(params.z_lower[1]), abs(params.z_upper[1]))
    z3 = max(abs(params.z_lower[2]), abs(params.z_upper[2]))
    z1 = max(abs(params.z_lower[0]), abs(params.z_upper[0]))
    g1 = np.sqrt((params.R / params.L) ** 2 + (c * z3) ** 2 + (c * z2) ** 2)
    g2 = np.sqrt((z2 / params.J_m) ** 2
                 + ((params.Y + z1) / params.J_m) ** 2
                 + (params.R / params.Y) ** 2)
    return np.array([g1, g2])


def split_network(net, params: PmsmParams = PmsmParams()):
    """Split the fixture into (z-subnet, v feedthrough D).

    The fixture convention puts the two exact-v neurons first: rows e_v1 and
    e_v2 of W1 with biases beyond the v range (always active on the
    workspace), so the surrogate is net(z, v) = subnet(z) + D v with
    D = [[1, 0], [0, L/Y]] and the approximation error is v-independent.
    """
    from ..relupwa import ReluNetwork

    W1, b1, W2, b2 = net.W1, net.b1, net.W2, net.b2
    expect = np.zeros((2, 5))
    expect[0, 3] = 1.0
    expect[1, 4] = 1.0
    if not (np.allclose(W1[:2], expect) and np.all(b1[:2] > params.v_bound)):
        raise ValueError("network does not follow the exact-v fixture layout")
    if np.abs(W1[2:, 3:]).max() > 0:
        raise ValueError("z-neurons must not read v")
    D = W2[:, :2].copy()
    sub = ReluNetwork(W1=W1[2:, :3], b1=b1[2:], W2=W2[:, 2:],
                      b2=b2 + W2[:, 0] * b1[0] + W2[:, 1] * b1[1])
    return sub, D


def dynamics(params: PmsmParams):
    """Vector field f(x, u) on floats."""
    RL = params.R / params.L

    def f(x, u):
        return (
            -RL * x[0] + x[1] * x[2] / params.J_m + u[0],
            -x[2] * (params.Y + x[0]) / params.J_m - RL * x[1] + u[1],
            (params.Y / params.L) * x[1],
        )

    return f


def zeta_workspace(params: PmsmParams = PmsmParams()) -> HPolytope:
    lo = list(params.z_lower) + [-params.v_bound] * 2
    hi = list(params.z_upper) + [params.v_bound] * 2
    return HPolytope.box(lo, hi)


def make_plant(params: PmsmParams = PmsmParams()) -> FlatPlant:
    A = np.zeros((3, 3))
    A[1, 2] = 1.0
    B = np.zeros((3, 2))
    B[0, 0] = 1.0
    B[2, 1] = 1.0
    f = dynamics(params)

    def to_flat(x):
        return np.array(pmsm_to_flat(x, params))

    def phi(z, v):
        return pmsm_phi(z, v, params)

    def closed_loop_field(x, v):
        return f(x, true_inputs(x, v))

    def true_inputs(x, v):
        return pmsm_phi(pmsm_to_flat(x, params), v, params)

    state_rows = HPolytope.box(params.z_lower, params.z_upper)
    return FlatPlant(
        name="pmsm",
        n=3, m=2, n_z=3,
        A=A, B=B,
        to_flat=to_flat,
        phi=phi,
        closed_loop_field=closed_loop_field,
        true_inputs=true_inputs,
        u_min=np.array([-params.u_bound, -params.u_bound]),
        u_max=np.array([params.u_bound, params.u_bound]),
        net_workspace=zeta_workspace(params),
        input_map=np.eye(5),
        state_rows=state_rows,
        equilibrium_z=params.z_eq,
        equilibrium_v=np.zeros(2),
        extras={"params": params},
    )
