"""Shared plant record.

A FlatPlant bundles a nonlinear model with its flat-coordinate machinery:
the coordinate map, the linearizing input map Phi, the Brunovsky pair, the
true input bounds, and the geometry the constraint pipeline needs (network
workspace, selector from (z, v) to the network input, state rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..polytope import HPolytope


@dataclass
class FlatPlant:
    name: str
    n: int            # plant state dimension (simulation coordinates)
    m: int            # input dimension
    n_z: int          # flat state dimension
    A: np.ndarray
    B: np.ndarray
    to_flat: Callable            # x -> z, an array
    # The maps below take float sequences (a list, a tuple or a 1-D array)
    # and return a tuple of floats, creating no array: the closed loop calls
    # closed_loop_field at every RK4 stage, so it works on Python floats.
    phi: Callable                # (z, v) -> u (true linearizing map)
    closed_loop_field: Callable  # (x, v) -> xdot under u = phi(z(x), v)
    true_inputs: Callable        # (x, v) -> u actually applied (for checks)
    u_min: np.ndarray
    u_max: np.ndarray
    net_workspace: HPolytope     # enumeration workspace in network-input space
    input_map: np.ndarray        # selector S with  net_input = S @ [z; v]
    state_rows: HPolytope | None = None   # Z_s in z-space, None = unconstrained
    phi_grad: Callable | None = None
    equilibrium_z: np.ndarray | None = None
    equilibrium_v: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def zeta(self, z, v):
        return np.concatenate([np.atleast_1d(z), np.atleast_1d(v)])

    def net_input(self, z, v):
        return self.input_map @ self.zeta(z, v)
