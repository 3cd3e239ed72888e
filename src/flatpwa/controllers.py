"""Online controllers over the linearized dynamics.

* CLF projection: minimal deviation from a desired input subject to the
  admissible union and a quadratic-Lyapunov decrease row: for a scalar
  input, v_d projected onto every cell's interval in closed form; otherwise
  one QP per cell.
* MI-constrained MPC: receding-horizon MIQP whose every predicted pair
  (z(k|i), v(k|i)) is kept inside the admissible union.
* FL-MPC baseline: state rows over the horizon but the input constraint
  only at the first step (via the union surrogate, then verified against
  the true map) -- the contrast case whose later forecast inputs may
  violate the true bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .miencoding import (AdmissibleUnion, BigMData, HorizonStructure, MiqpModel,
                         horizon_structure, lift_rows)
# not called here: the benchmark's tracer rebinds these names in this module
from .miencoding import encode_horizon, encode_point  # noqa: F401
from .miqpsolver import MiqpResult, SolveBudget, solve_miqp
from .numkernel import ITERATION_LIMIT, OPTIMAL, QpMatrices, QpProblem, eig_sym, solve_qp
from .polytope import HPolytope, StackedRows
from .simulate import ControllerInfeasible
from .tolerances import DEFAULT


@dataclass
class ClfSpec:
    P: np.ndarray
    gamma: float
    gain: np.ndarray | None = None       # v_d(z) = -gain @ z

    def __post_init__(self):
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if self.gain is not None:
            self.gain = np.atleast_2d(np.asarray(self.gain, dtype=float))

    def v_d(self, z):
        if self.gain is None:
            raise ValueError("ClfSpec needs a gain")
        return -self.gain @ np.asarray(z, dtype=float)

    def V(self, z):
        z = np.asarray(z, dtype=float)
        return float(z @ self.P @ z)


@dataclass
class MpcSpec:
    Q: np.ndarray
    R: np.ndarray
    N_p: int
    A_d: np.ndarray
    B_d: np.ndarray
    state_rows: HPolytope | None = None
    input_rows: HPolytope | None = None
    input_map: np.ndarray | None = None
    budget: SolveBudget = field(default_factory=SolveBudget)
    # used when the primary budget produces no feasible point (bad cell hint)
    fallback_budget: SolveBudget | None = None

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if self.N_p < 1:
            raise ValueError("N_p must be >= 1")
        for M, name in ((self.Q, "Q"), (self.R, "R")):
            if np.abs(M - M.T).max() > DEFAULT.sym * max(1.0, np.abs(M).max()):
                raise ValueError(f"{name} must be symmetric")


def verify_clf(spec: ClfSpec, A, B) -> dict:
    """Check P > 0 and Psi A' + A Psi - 2 B B' + gamma Psi <= 0, Psi = P^-1.

    A P that is not positive definite fails the check without the LMI
    being formed (``lmi_max_eig`` is None)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    pd_eigs = eig_sym(spec.P)
    if pd_eigs[0] <= 0.0:
        return {"pd_min_eig": float(pd_eigs[0]), "lmi_max_eig": None, "pass": False}
    Psi = np.linalg.inv(spec.P)
    lmi = Psi @ A.T + A @ Psi - 2.0 * B @ B.T + spec.gamma * Psi
    lmi_eigs = eig_sym(0.5 * (lmi + lmi.T))
    return {
        "pd_min_eig": float(pd_eigs[0]),
        "lmi_max_eig": float(lmi_eigs[-1]),
        "pass": bool(lmi_eigs[-1] <= DEFAULT.psd),
    }


@dataclass
class ClfStepResult:
    v: np.ndarray
    objective: float
    cell: int


def _best_cell(order, cell_problem):
    """One QP per admissible cell, tried in ``order``; returns (QpResult,
    cell) of the lowest objective, ties going to the earlier cell, or None
    when every cell is infeasible. FL-MPC's first step and the CLF step with
    m > 1 inputs run this loop; the CLF's closed form for m = 1 is tested
    against it.

    Over one instant the union's disjunction is exactly "solve each member,
    keep the best". The costs here are sums of squares, so the loop stops at
    the first objective <= ``DEFAULT.miqp_gap``: no cell beats it by more than
    the absolute gap branch and bound certifies. ``solve_qp`` and
    ``QpProblem`` are looked up as module globals at call time, so that a
    rebinding of either reaches this loop.
    """
    best = None
    for j in order:
        res = solve_qp(cell_problem(j))
        if res.status == ITERATION_LIMIT:
            raise ControllerInfeasible("a cell QP hit its iteration cap")
        if res.status == OPTIMAL and (best is None or res.objective < best[0].objective):
            best = (res, j)
            if res.objective <= DEFAULT.miqp_gap:
                break
    return best


@dataclass(frozen=True)
class ClfStructure:
    """Everything of the CLF step that no sample changes, built once per
    controller by ``clf_structure``: the spec, the linear dynamics (A, B)
    and what the union and the input map give.

    ``rows`` is the union's stacked rows, whose layout (``starts``,
    ``slices``, ``owner``) says which row belongs to which cell. Lifted
    through the input map they read A S = [A_z, G], so that a sample's rows
    over v read G v <= b - A_z z. For m = 1, ``upper``/``lower`` flag the
    rows that bound v from above (G > 0) or below (G < 0); for m > 1,
    ``cost`` is the record of the cost H = 2 I.
    """

    spec: ClfSpec
    A: np.ndarray
    B: np.ndarray
    rows: StackedRows
    A_z: np.ndarray
    G: np.ndarray
    upper: np.ndarray | None = None
    lower: np.ndarray | None = None
    cost: QpMatrices | None = None


def clf_structure(spec: ClfSpec, U: AdmissibleUnion, A, B,
                  input_map=None) -> ClfStructure:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_z, m = B.shape
    lifted = lift_rows(U, input_map, n_z + m)
    G = lifted[:, n_z:]
    parts = dict(spec=spec, A=A, B=B, rows=U.stacked,
                 A_z=np.ascontiguousarray(lifted[:, :n_z]), G=G)
    if m > 1:
        return ClfStructure(**parts, cost=QpMatrices.of(2.0 * np.eye(m)))
    return ClfStructure(**parts, upper=G[:, 0] > 0.0, lower=G[:, 0] < 0.0)


def _clf_rows(s: ClfStructure, z):
    """A sample's program over v: per cell G v <= h with h = b - A_z z,
    the decrease row a'v <= r, and the desired input v_d. Returns
    (h, a, r, v_d)."""
    spec = s.spec
    h = s.rows.b - s.A_z @ z
    a = 2.0 * s.B.T @ spec.P @ z
    r = float(-spec.gamma * z @ spec.P @ z - 2.0 * z @ spec.P @ s.A @ z)
    return h, a, r, spec.v_d(z)


def _clf_intervals(s: ClfStructure, h, a, r, vd, first_cell):
    """The m = 1 program in closed form, every cell at once.

    Each cell's program min (v - v_d)^2 s.t. G_j v <= h_j, a v <= r is the
    projection of v_d onto an interval [lo_j, hi_j]: a row with G_i > 0 is
    the upper bound h_i / G_i, one with G_i < 0 a lower bound. As the dual
    kernel does, only the rows that v_d violates by more than
    ``DEFAULT.feas``, the decrease row included, bound the interval (rows
    are not scaled, so a small coefficient lets v_d pass its bound by up to
    DEFAULT.feas / |G_i|), and a cell is feasible when its projection
    violates none of its rows by more than ``DEFAULT.feas`` (which also
    judges rows with G_i = 0). The cell is chosen as ``_best_cell`` chooses:
    ``first_cell``, then index order, the first objective <=
    ``DEFAULT.miqp_gap``, else the lowest, ties to the earlier. Returns None
    when every cell is infeasible.
    """
    rows = s.rows
    g = s.G[:, 0]
    v0 = float(vd[0])
    a0 = float(a[0])
    push = g * v0 - h > DEFAULT.feas
    hi = np.divide(h, g, out=np.full_like(h, np.inf), where=push & s.upper)
    lo = np.divide(h, g, out=np.full_like(h, -np.inf), where=push & s.lower)
    hi = np.minimum.reduceat(hi, rows.starts)
    lo = np.maximum.reduceat(lo, rows.starts)
    if a0 * v0 - r > DEFAULT.feas:
        if a0 > 0.0:
            hi = np.minimum(hi, r / a0)
        elif a0 < 0.0:
            lo = np.maximum(lo, r / a0)
    v = np.minimum(np.maximum(v0, lo), hi)
    worst = np.maximum(np.maximum.reduceat(g * v[rows.owner] - h, rows.starts),
                       a0 * v - r)
    obj = np.where(worst <= DEFAULT.feas, (v - v0) ** 2, np.inf)
    close = np.flatnonzero(obj <= DEFAULT.miqp_gap)
    j = int(close[0]) if close.size else int(np.argmin(obj))
    if first_cell is not None and obj[first_cell] <= max(obj[j], DEFAULT.miqp_gap):
        j = first_cell
    if not np.isfinite(obj[j]):
        return None
    return ClfStepResult(v=v[[j]], objective=float(obj[j]), cell=j)


def _clf_cell_qps(s: ClfStructure, h, a, r, vd, first_cell):
    """The program as one QP per cell (``_best_cell``): that cell's rows
    plus the decrease row, with the cost record ``s.cost``. Returns None
    when every cell is infeasible."""
    g = -2.0 * vd
    c0 = float(vd @ vd)

    def cell_problem(j):
        cell = s.rows.slices[j]
        return QpProblem(g=g, h=np.append(h[cell], r), c0=c0,
                         matrices=s.cost.with_rows(np.vstack([s.G[cell], a])))

    order = list(range(len(s.rows.slices)))
    if first_cell is not None:
        order.insert(0, order.pop(first_cell))
    best = _best_cell(order, cell_problem)
    if best is None:
        return None
    res, j = best
    return ClfStepResult(v=res.x, objective=res.objective, cell=j)


def clf_step(structure: ClfStructure, z,
             first_cell: int | None = None) -> ClfStepResult:
    """Project the desired input onto the stabilizing admissible set.

    min ||v - v_d(z)||^2 s.t. (z, v) in the union and
    2 z'P(Az + Bv) <= -gamma z'P z. Per cell this is a program over v: that
    cell's rows with z substituted, plus the decrease row. For a scalar
    input (m = 1) every cell's program is solved at once in closed form
    (``_clf_intervals``); for m > 1, one QP per cell (``_clf_cell_qps``).
    ``first_cell`` (the previous sample's cell) is tried first, then the
    others in index order. Raises ControllerInfeasible when no cell is
    feasible. ``structure`` is ``clf_structure(spec, U, A, B, input_map)``,
    built once by a controller.
    """
    z = np.asarray(z, dtype=float)
    solve = _clf_intervals if structure.cost is None else _clf_cell_qps
    out = solve(structure, *_clf_rows(structure, z), first_cell)
    if out is None:
        raise ControllerInfeasible("CLF projection program is infeasible")
    return out


@dataclass
class MpcStepResult:
    v: np.ndarray
    z_forecast: np.ndarray     # (N_p + 1, n_z)
    v_forecast: np.ndarray     # (N_p, m)
    result: MiqpResult
    model: MiqpModel


def _split_forecast(model: MiqpModel, x):
    n_z = model.meta["n_z"]
    m = model.meta["m"]
    N_p = model.meta["N_p"]
    zs = x[:n_z * (N_p + 1)].reshape(N_p + 1, n_z)
    vs = x[n_z * (N_p + 1):n_z * (N_p + 1) + m * N_p].reshape(N_p, m)
    return zs, vs


def mpc_structure(spec: MpcSpec, U: AdmissibleUnion | None,
                  big_m: BigMData | None) -> HorizonStructure:
    """The sample-independent part of ``spec``'s horizon program, built once
    per controller; ``U=None`` gives the FL-MPC base without the union."""
    return horizon_structure(U, spec.N_p, spec.A_d, spec.B_d, spec.Q, spec.R,
                             big_m, state_rows=spec.state_rows,
                             input_map=None if U is None else spec.input_map,
                             input_rows=spec.input_rows)


def mpc_step(spec: MpcSpec, structure: HorizonStructure, z0,
             z_ref=None, v_ref=None, initial_cells=None) -> MpcStepResult:
    """One receding-horizon solve; returns the first input and the forecast.

    ``structure`` is ``mpc_structure(spec, U, big_m)``, built once by a
    controller; ``spec`` gives the solve budgets."""
    model = structure.instantiate(z0, z_ref, v_ref)
    res = solve_miqp(model, budget=spec.budget, initial_cells=initial_cells)
    if res.x is None and spec.fallback_budget is not None:
        res = solve_miqp(model, budget=spec.fallback_budget)
    if res.x is None:
        raise ControllerInfeasible("MPC program is infeasible")
    zs, vs = _split_forecast(model, res.x)
    return MpcStepResult(v=vs[0], z_forecast=zs, v_forecast=vs, result=res,
                         model=model)


@dataclass
class FlmpcStepResult:
    v: np.ndarray
    z_forecast: np.ndarray
    v_forecast: np.ndarray
    cell: int
    objective: float
    first_input_value: np.ndarray   # true Phi at (z0, v0), for the post-hoc check


@dataclass(frozen=True)
class FlmpcStructure:
    """The sample-independent part of the FL-MPC step, built once per
    controller: the horizon structure without the union, and per cell the
    matrix record of its first-step program (the base H and E; the base
    rows plus that cell's rows on (z_0, v_0)) and the right-hand side of
    those rows."""

    horizon: HorizonStructure
    cells: tuple
    rhs: tuple


def flmpc_structure(spec: MpcSpec, U: AdmissibleUnion) -> FlmpcStructure:
    horizon = mpc_structure(spec, None, None)
    t = horizon.template
    n_z, m = t.meta["n_z"], t.meta["m"]
    zeta_cols = np.concatenate([np.arange(n_z),
                                np.arange(n_z * (spec.N_p + 1),
                                          n_z * (spec.N_p + 1) + m)])
    rows = U.stacked
    lifted = np.zeros((rows.b.size, t.n_cont))
    lifted[:, zeta_cols] = lift_rows(U, spec.input_map, n_z + m)
    return FlmpcStructure(
        horizon=horizon,
        cells=tuple(t.blocks.cont.with_rows(np.vstack([t.G, lifted[c]]))
                    for c in rows.slices),
        rhs=tuple(np.concatenate([t.h, rows.b[c]]) for c in rows.slices))


def flmpc_step(structure: FlmpcStructure, phi, z0, z_ref=None,
               v_ref=None) -> FlmpcStepResult:
    """FL-MPC baseline: input constrained at step 0 only.

    The nonlinear first-input constraint |Phi(z0, v0)| <= u_bar is enforced
    through the tightened union restricted to step 0 (one QP per cell, as
    for the CLF), which is an inner approximation; the returned input is
    re-checked against the true map by the caller. Later forecast steps only
    carry the state rows, so their implied inputs may violate the true bound
    -- that is the point of the baseline. ``structure`` is
    ``flmpc_structure(spec, U)``, built once by a controller.
    """
    base = structure.horizon.instantiate(z0, z_ref, v_ref)

    def cell_problem(j):
        return QpProblem(g=base.g, h=structure.rhs[j], d=base.d, c0=base.c0,
                         matrices=structure.cells[j])

    best = _best_cell(range(len(structure.cells)), cell_problem)
    if best is None:
        raise ControllerInfeasible("FL-MPC first-step program is infeasible")
    res, j = best
    zs, vs = _split_forecast(base, res.x)
    first_u = np.atleast_1d(phi(np.asarray(z0, dtype=float), vs[0]))
    return FlmpcStepResult(v=vs[0], z_forecast=zs, v_forecast=vs, cell=j,
                           objective=res.objective, first_input_value=first_u)


def make_clf_controller(spec: ClfSpec, U, A, B, input_map=None):
    """Adapter for the closed-loop runner: (z, k) -> (v, solver_ms, info).

    Each sample tries the previous sample's cell first."""
    state = {"cell": None}
    structure = clf_structure(spec, U, A, B, input_map)

    def controller(z, k):
        t0 = time.perf_counter()
        out = clf_step(structure, z, first_cell=state["cell"])
        ms = (time.perf_counter() - t0) * 1e3
        state["cell"] = out.cell
        return out.v, ms, {"cell": out.cell}

    return controller


def make_mpc_controller(spec: MpcSpec, U, big_m, refs=None, ref_cells=None):
    """MPC adapter; ``refs(k)`` returns (z_ref, v_ref) horizon blocks and
    ``ref_cells(k)`` an optional cell-sequence hint for every solve.

    Without ``ref_cells`` each solve is hinted with the previous solve's
    sequence, shifted by one step; the first, with the cell of (z0, v_ref_0)
    (v = 0 without a reference) at every step."""
    last_cells = {"seq": None}
    structure = mpc_structure(spec, U, big_m)
    S = np.eye(structure.template.meta["n_z"] + spec.B_d.shape[1]) \
        if spec.input_map is None else np.asarray(spec.input_map, dtype=float)

    def controller(z, k):
        z_ref = v_ref = None
        if refs is not None:
            z_ref, v_ref = refs(k)
        t0 = time.perf_counter()
        hint = ref_cells(k) if ref_cells is not None else last_cells["seq"]
        if hint is None and len(U) > 1:
            v = np.zeros(spec.B_d.shape[1]) if v_ref is None else np.atleast_2d(v_ref)[0]
            hint = [U.stacked.locate(S @ np.concatenate([z, v]))] * spec.N_p
        out = mpc_step(spec, structure, z, z_ref=z_ref, v_ref=v_ref,
                       initial_cells=hint)
        ms = (time.perf_counter() - t0) * 1e3
        res = out.result
        seq = res.cell_sequence(out.model)
        if seq:
            last_cells["seq"] = seq[1:] + seq[-1:]
        return out.v, ms, {"status": res.status, "nodes": res.node_count, "gap": res.gap,
                           "objective": res.objective,
                           "forecast": (out.z_forecast, out.v_forecast)}

    return controller


def make_flmpc_controller(spec: MpcSpec, U, phi, refs=None):
    structure = flmpc_structure(spec, U)

    def controller(z, k):
        z_ref = v_ref = None
        if refs is not None:
            z_ref, v_ref = refs(k)
        t0 = time.perf_counter()
        out = flmpc_step(structure, phi, z, z_ref=z_ref, v_ref=v_ref)
        ms = (time.perf_counter() - t0) * 1e3
        return out.v, ms, {"cell": out.cell,
                           "forecast": (out.z_forecast, out.v_forecast)}

    return controller
