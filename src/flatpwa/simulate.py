"""RK4 integration, exact discretization, and closed-loop running.

The closed loop applies the linearizing map continuously inside each
sampling interval: the controller fixes v for [kTs, (k+1)Ts) and the plant
integrates xdot = f(x, Phi(z(x), v)) with RK4 substeps, re-evaluating the
inner feedback at every stage.

The substeps run on Python floats: ``plant.closed_loop_field(x, v)`` takes
float sequences and returns a tuple of floats, and ``rk4_step`` returns the
new state as a list. A closed loop converts x and v once per sample and
builds one state array per sample for its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# slack on the true input bounds and the plant state rows before a sample
# counts as a violation
CHECK_MARGIN = 1e-6


def rk4_step(f, x, u, h):
    """One classical RK4 step of xdot = f(x, u) on floats; returns a list.

    Each component keeps the operation order of the array form,
    x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4) with the stages at
    x + (0.5 h) k, so that the traces match it bit for bit.
    """
    half = 0.5 * h
    k1 = f(x, u)
    k2 = f([a + half * b for a, b in zip(x, k1)], u)
    k3 = f([a + half * b for a, b in zip(x, k2)], u)
    k4 = f([a + h * b for a, b in zip(x, k3)], u)
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def rk4_discretize(A, B, T_s):
    """Zero-order-hold RK4 discretization of xdot = A x + B u.

    A_d = sum_{i=0..4} (A T)^i / i!,  B_d = (sum_{i=1..4} A^{i-1} T^i / i!) B.
    Exact for nilpotent A (every Brunovsky pair here).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    Ad = np.eye(n)
    term = np.eye(n)
    S = np.zeros((n, n))
    acc = np.eye(n) * T_s
    for i in range(1, 5):
        term = term @ A * (T_s / i)
        Ad = Ad + term
        S = S + acc
        acc = acc @ A * (T_s / (i + 1))
    return Ad, S @ B


@dataclass
class StepRecord:
    t: float
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    cell_index: int
    solver_ms: float


@dataclass
class ClosedLoopResult:
    records: list
    input_violations: int = 0
    state_violations: int = 0
    solver_ms: list = field(default_factory=list)
    infeasible_at: float | None = None

    @property
    def mean_solver_ms(self):
        return float(np.mean(self.solver_ms)) if self.solver_ms else 0.0

    @property
    def max_solver_ms(self):
        return float(np.max(self.solver_ms)) if self.solver_ms else 0.0


def locate_cell(union, y):
    """Index of the admissible-union member containing the network input y,
    the first of the smallest max-residual winning; -1 when outside all
    members. An (N, dim) batch of inputs gives an array of N indices."""
    return union.stacked.locate(y)


def run_closed_loop(plant, controller, x0, T_sim, T_s, h=1e-3, union=None,
                    on_infeasible="raise"):
    """Sample-and-hold closed loop.

    ``controller(z, k)`` returns (v, solver_ms, info). Violations are counted
    against the true nonlinear input map and the plant state rows, never the
    surrogate. When the controller raises ControllerInfeasible, "raise" ends
    the run there (``infeasible_at``) and "hold" applies the previous input
    again, with a solve time of 0. Each sample interval is round(T_s / h)
    RK4 substeps of ``plant.closed_loop_field`` on floats.
    """
    x = np.asarray(x0, dtype=float).copy()
    steps = int(round(T_sim / T_s))
    sub = max(1, int(round(T_s / h)))
    hh = T_s / sub
    records = []
    result = ClosedLoopResult(records=records)
    v_prev = None
    for k in range(steps):
        z = plant.to_flat(x)
        t = k * T_s
        try:
            v, ms, _ = controller(z, k)
        except ControllerInfeasible:
            if on_infeasible == "hold" and v_prev is not None:
                v, ms = v_prev, 0.0
            else:
                result.infeasible_at = t
                break
        v = np.atleast_1d(np.asarray(v, dtype=float))
        xs, vs = x.tolist(), v.tolist()
        u = np.array(plant.true_inputs(xs, vs))
        if np.any(u > plant.u_max + CHECK_MARGIN) or np.any(u < plant.u_min - CHECK_MARGIN):
            result.input_violations += 1
        if plant.state_rows is not None and \
                np.max(plant.state_rows.A @ z - plant.state_rows.b) > CHECK_MARGIN:
            result.state_violations += 1
        cell = -1
        if union is not None:
            cell = locate_cell(union, plant.net_input(z, v))
        records.append(StepRecord(t=t, x=x, z=z.copy(), u=u, v=v.copy(),
                                  cell_index=cell, solver_ms=ms))
        result.solver_ms.append(ms)
        for _ in range(sub):
            xs = rk4_step(plant.closed_loop_field, xs, vs, hh)
        x = np.array(xs)
        v_prev = v
    return result


class ControllerInfeasible(RuntimeError):
    """Raised when the online program has no admissible input."""


def trace_csv(records, plant) -> str:
    """Fixed-order CSV trace: t, x..., z..., u..., v..., cell_index, solver_ms."""
    cols = (["t"]
            + [f"x{i+1}" for i in range(plant.n)]
            + [f"z{i+1}" for i in range(plant.n_z)]
            + [f"u{i+1}" for i in range(plant.m)]
            + [f"v{i+1}" for i in range(plant.m)]
            + ["cell_index", "solver_ms"])
    lines = [",".join(cols)]
    for r in records:
        vals = ([f"{r.t:.6f}"]
                + [f"{a:.12g}" for a in r.x]
                + [f"{a:.12g}" for a in r.z]
                + [f"{a:.12g}" for a in r.u]
                + [f"{a:.12g}" for a in r.v]
                + [str(r.cell_index), f"{r.solver_ms:.3f}"])
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
