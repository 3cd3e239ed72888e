"""Scenario assembly: plant + network + tuning -> runnable pipeline stages.

Shared by the CLI and the test suite so that every entry point exercises the
same construction code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import plants
from .config import ConfigError, ScenarioConfig
from .controllers import (ClfSpec, MpcSpec, make_clf_controller,
                          make_flmpc_controller, make_mpc_controller)
from .errorbounds import GridSpec, grid_error_certificate, taylor_cell_bounds
from .miencoding import (BigMData, build_admissible_union, compute_big_m,
                         validate_big_m_override)
from .miqpsolver import SolveBudget
from .numkernel import eig_sym
from .polytope import HPolytope, box_bounds
from .relupwa import ReluNetwork, enumerate_cells
from .simulate import locate_cell, rk4_discretize, run_closed_loop
from .tolerances import DEFAULT
from .plants import aircraft as aircraft_mod
from .plants import pmsm as pmsm_mod
from .plants import uav as uav_mod

# recorded certification margins of the packaged fixtures
DEFAULT_EPS = {
    "aircraft": np.array([0.1897]),
    "uav": np.array([0.981]),
    "pmsm": np.array([1.0, 0.76]),
}


@dataclass
class Pipeline:
    cfg: ScenarioConfig
    plant: object
    net: ReluNetwork
    workspace: HPolytope
    decomposition: object = None
    union: object = None
    big_m: BigMData | None = None

    def ensure_cells(self):
        if self.decomposition is None:
            self.decomposition = enumerate_cells(self.net, self.workspace)
        return self.decomposition

    def ensure_union(self):
        if self.union is None:
            cfg, plant, n = self.cfg, self.plant, self.net.n2
            u_max = _per_output(cfg.u_max, plant.u_max, n, "tightening.u_max")
            u_min = _per_output(cfg.u_min, plant.u_min, n, "tightening.u_min")
            eps = _per_output(cfg.eps, DEFAULT_EPS[cfg.plant], n, "tightening.eps")
            self.union = _tightened_union(self.ensure_cells(), u_max, eps,
                                          u_min=u_min)
        return self.union

    def ensure_big_m(self):
        if self.big_m is None:
            U = self.ensure_union()
            if self.cfg.big_m == "exact":
                self.big_m = compute_big_m(U, self.workspace)
            else:
                self.big_m = validate_big_m_override(U, self.workspace,
                                                     float(self.cfg.big_m))
        return self.big_m


def _per_output(value, default, n, path):
    """A tightening vector of one entry or one per network output (n): the
    config's, else the first n of ``default`` (the UAV's network carries
    only the first of its plant's two inputs, the speed)."""
    if value is None:
        return default[:n]
    if value.size not in (1, n):
        count = "1 entry" if n == 1 else f"1 or {n} entries"
        raise ConfigError(f"{path}: expected {count} (one per network output), "
                          f"got {value.size}")
    return value


def _tightened_union(cells, u_max, eps, u_min=None):
    """``build_admissible_union``; a tightening that leaves nothing
    admissible is a configuration error."""
    try:
        return build_admissible_union(cells, u_max, eps, u_min=u_min)
    except ValueError as e:
        raise ConfigError(f"tightening.eps: {e}") from None


def build_pipeline(cfg: ScenarioConfig) -> Pipeline:
    plant = plants.make_plant(cfg.plant)
    net_name = cfg.network or f"{cfg.plant}_net.json"
    net = ReluNetwork.load(cfg.resolve_path(net_name))
    if cfg.workspace_lower is not None:
        if cfg.workspace_lower.shape != (net.n0,):
            raise ConfigError(f"workspace: expected {net.n0} bounds per side, the "
                              f"network's input size, got {cfg.workspace_lower.size}")
        workspace = HPolytope.box(cfg.workspace_lower, cfg.workspace_upper)
    else:
        workspace = plant.net_workspace
    return Pipeline(cfg=cfg, plant=plant, net=net, workspace=workspace)


def _coordinate_problem(pipe: Pipeline):
    """Coordinate-wise true map ``phi(x_1, ..., x_d)``, network, grid box,
    Lipschitz data and cells for the certificate.

    The aircraft and UAV networks are certified on their own input spaces;
    the PMSM fixture's error is independent of v by construction, so its
    z-subnet is certified over the z-box.
    """
    cfg = pipe.cfg
    if cfg.plant == "aircraft":
        params = pipe.plant.extras["params"]
        gamma = aircraft_mod.aircraft_lipschitz(params)["gamma_phi"]
        return partial(aircraft_mod.aircraft_phi, params=params), pipe.net, \
            box_bounds(pipe.plant.net_workspace), np.array([gamma]), pipe.ensure_cells()
    if cfg.plant == "uav":
        return uav_mod.speed_map, pipe.net, box_bounds(pipe.plant.net_workspace), \
            np.array([1.0]), pipe.ensure_cells()
    if cfg.plant == "pmsm":
        params = pipe.plant.extras["params"]
        sub, _ = pmsm_mod.split_network(pipe.net, params)
        lo = np.array(params.z_lower)
        hi = np.array(params.z_upper)
        sub_cells = enumerate_cells(sub, HPolytope.box(lo, hi))
        return partial(pmsm_mod.pmsm_state_part, params=params), sub, (lo, hi), \
            pmsm_mod.state_part_lipschitz(params), sub_cells
    raise ValueError(cfg.plant)


def certification_problem(pipe: Pipeline):
    """``_coordinate_problem`` with the true map taking an (N, d) point batch,
    as off-grid samples come."""
    phi, *rest = _coordinate_problem(pipe)
    return (lambda pts: phi(*pts.T), *rest)


def run_certification(pipe: Pipeline, threads: int = 1):
    phi, net, (lo, hi), gamma, cells = _coordinate_problem(pipe)
    deltas = pipe.cfg.grid_deltas
    if deltas is None:
        deltas = (hi - lo) / 300.0
    elif deltas.size not in (1, lo.size):
        raise ConfigError(f"grid.deltas: expected 1 or {lo.size} entries (one per "
                          f"certified input), got {deltas.size}")
    grid = GridSpec(deltas=np.broadcast_to(deltas, lo.shape), lower=lo, upper=hi)
    return grid_error_certificate(phi, cells, net, grid, gamma, threads=threads)


def run_taylor_table(pipe: Pipeline):
    """Per-cell Taylor/vertex bounds (aircraft only: the published table)."""
    cfg = pipe.cfg
    if cfg.plant != "aircraft":
        raise ValueError("the per-cell Taylor table is an aircraft analysis")
    params = pipe.plant.extras["params"]
    lips = aircraft_mod.aircraft_lipschitz(params)
    n = pipe.net.n2
    u_max = _per_output(cfg.taylor_u_max, np.array([4.0]), n, "grid.taylor_u_max")
    eps = _per_output(cfg.eps, DEFAULT_EPS["aircraft"], n, "tightening.eps")
    union = _tightened_union(pipe.ensure_cells(), u_max, eps)

    def phi(zeta):
        return aircraft_mod.aircraft_phi(zeta[0], zeta[1], params)

    def phi_grad(zeta):
        return np.array(aircraft_mod.aircraft_phi_grad(zeta[0], zeta[1], params))

    return taylor_cell_bounds(phi, phi_grad, union.pieces, lips["C_zeta"]), lips


def _uav_reference(pipe: Pipeline):
    ref = pipe.cfg.reference
    z_ref, v_ref, x0 = uav_mod.turn_reference(
        radius=float(ref.get("radius", 150.0)),
        speed=float(ref.get("speed", 18.0)),
        T_s=pipe.cfg.T_s,
        theta0=np.radians(float(ref.get("start_deg", 15.0))),
        theta1=np.radians(float(ref.get("end_deg", 75.0))),
    )
    return z_ref, v_ref, x0


def _plant_sized(M, path, shape, symmetric=False):
    """A tuning matrix checked against the plant's dimensions."""
    if M.shape != shape:
        raise ConfigError(f"{path}: expected shape {shape} for this plant, got {M.shape}")
    if symmetric and np.abs(M - M.T).max() > DEFAULT.sym * max(1.0, np.abs(M).max()):
        raise ConfigError(f"{path}: must be symmetric")
    return M


def clf_spec(pipe: Pipeline, gain_required: bool = True) -> ClfSpec:
    """The config's CLF tuning, checked against the plant: P (n_z x n_z,
    symmetric), gamma and, unless only P is verified, the gain K (m x n_z)."""
    cfg, plant = pipe.cfg, pipe.plant
    required = [(cfg.P, "tuning.P"), (cfg.gamma, "tuning.gamma")]
    if gain_required:
        required.append((cfg.gain, "tuning.K"))
    for value, path in required:
        if value is None:
            raise ConfigError(f"{path}: required by the CLF")
    P = _plant_sized(cfg.P, "tuning.P", (plant.n_z, plant.n_z), symmetric=True)
    gain = None if cfg.gain is None else _plant_sized(cfg.gain, "tuning.K",
                                                      (plant.m, plant.n_z))
    return ClfSpec(P=P, gamma=cfg.gamma, gain=gain)


def _initial_state(x0, plant):
    x0 = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (plant.n,):
        raise ConfigError(f"simulation.x0: expected {plant.n} entries for this "
                          f"plant, got {x0.size}")
    return x0


def build_controller(pipe: Pipeline):
    """Controller closure for the closed-loop runner plus the initial state."""
    cfg = pipe.cfg
    plant = pipe.plant
    U = pipe.ensure_union()

    if cfg.controller == "clf":
        spec = clf_spec(pipe)
        if eig_sym(spec.P)[0] <= 0.0:
            # the decrease row would not make V a Lyapunov function
            raise ConfigError("tuning.P: must be positive definite")
        x0 = _initial_state(cfg.x0, plant)
        ctl = make_clf_controller(spec, U, plant.A, plant.B,
                                  input_map=plant.input_map)
        return ctl, x0, {"clf_spec": spec}

    budget = SolveBudget(max_nodes=cfg.max_nodes, max_ms=cfg.max_ms)
    fallback = None
    if cfg.fallback_max_nodes is not None:
        fallback = SolveBudget(max_nodes=cfg.fallback_max_nodes, max_ms=cfg.max_ms)
    Q = np.eye(plant.n_z) if cfg.Q is None else \
        _plant_sized(cfg.Q, "tuning.Q", (plant.n_z, plant.n_z), symmetric=True)
    R = 0.1 * np.eye(plant.m) if cfg.R is None else \
        _plant_sized(cfg.R, "tuning.R", (plant.m, plant.m), symmetric=True)
    A_d, B_d = rk4_discretize(plant.A, plant.B, cfg.T_s)
    input_rows = None
    if cfg.plant == "uav":
        input_rows = uav_mod.accel_polygon(plant.extras["params"],
                                           cfg.polygon_sides)
    spec = MpcSpec(Q=Q, R=R, N_p=cfg.N_p, T_s=cfg.T_s, A_d=A_d, B_d=B_d,
                   state_rows=plant.state_rows, input_rows=input_rows,
                   input_map=plant.input_map, budget=budget,
                   fallback_budget=fallback)

    refs = None
    ref_cells = None
    x0 = cfg.x0
    if cfg.plant == "uav":
        z_ref, v_ref, x0_ref = _uav_reference(pipe)
        if x0 is None:
            x0 = x0_ref

        # sample k reads indices k .. k + N_p - 1, all but the last of them
        # read at sample k - 1 too
        @lru_cache(maxsize=2 * cfg.N_p)
        def ref_at(i):
            return z_ref(i), v_ref(i)

        def refs(k):
            at = [ref_at(k + i) for i in range(cfg.N_p)]
            return np.array([z for z, _ in at]), np.array([v for _, v in at])

        # each index's cell is located once, the first time a window reads it
        @lru_cache(maxsize=2 * cfg.N_p)
        def ref_cell(i):
            return locate_cell(U, np.concatenate(ref_at(i)) @ plant.input_map.T)

        def ref_cells(k):
            return [ref_cell(k + i) for i in range(cfg.N_p)]
    elif cfg.plant == "pmsm" and cfg.reference.get("type", "equilibrium") \
            == "equilibrium":
        z_eq = plant.equilibrium_z
        v_eq = plant.equilibrium_v

        def refs(k):
            return np.tile(z_eq, (cfg.N_p, 1)), np.tile(v_eq, (cfg.N_p, 1))

    x0 = _initial_state(x0, plant)

    if cfg.controller == "flmpc":
        ctl = make_flmpc_controller(spec, U, plant.phi, refs=refs)
    else:
        ctl = make_mpc_controller(spec, U, pipe.ensure_big_m(), refs=refs,
                                  ref_cells=ref_cells)
    return ctl, x0, {"mpc_spec": spec, "refs": refs}


def run_scenario(pipe: Pipeline):
    ctl, x0, info = build_controller(pipe)
    result = run_closed_loop(pipe.plant, ctl, x0, T_sim=pipe.cfg.duration,
                             T_s=pipe.cfg.T_s, h=pipe.cfg.substep,
                             union=pipe.ensure_union(),
                             on_infeasible=pipe.cfg.on_infeasible)
    return result, info


def summarize(result, pipe: Pipeline) -> dict:
    zs = np.array([r.z for r in result.records]) if result.records else np.zeros((0, 1))
    out = {
        "steps": len(result.records),
        "input_violations": result.input_violations,
        "state_violations": result.state_violations,
        "mean_solver_ms": result.mean_solver_ms,
        "max_solver_ms": result.max_solver_ms,
        "infeasible_at": result.infeasible_at,
    }
    steps = [r.info for r in result.records if "status" in r.info]
    if steps:
        # the MPC's branch and bound: node counts and per-step statuses
        out["max_nodes"] = max(s.get("nodes", 0) for s in steps)
        out["status_counts"] = dict(Counter(s["status"] for s in steps))
    if len(zs):
        out["final_z"] = zs[-1].tolist()
        out["final_z_norm"] = float(np.linalg.norm(zs[-1]))
        if pipe.plant.equilibrium_z is not None:
            out["final_dist_to_equilibrium"] = float(
                np.linalg.norm(zs[-1] - pipe.plant.equilibrium_z))
    return out
