"""Scenario configuration: one YAML document per experiment.

Validation raises ConfigError with a dotted path to the offending field so
CLI users get precise locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

VALID_PLANTS = ("aircraft", "uav", "pmsm")
VALID_CONTROLLERS = ("clf", "mpc", "flmpc")
REFERENCE_TYPES = {"pmsm": "equilibrium", "uav": "turn"}   # the aircraft has none


class ConfigError(ValueError):
    pass


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _number(raw, path):
    """A finite number; ``true``/``false`` are not numbers here, though
    ``float(True)`` is 1.0."""
    _require(not isinstance(raw, bool), path, f"expected a number, got {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    _require(np.isfinite(value), path, "must be finite")
    return value


def _integer(raw, path, lowest):
    """A YAML integer of at least ``lowest``; ``true``/``false`` are not
    integers here, though Python's ``bool`` subclasses ``int``."""
    _require(isinstance(raw, int) and not isinstance(raw, bool) and raw >= lowest,
             path, f"must be an integer >= {lowest}, got {raw!r}")
    return raw


def _divides(step, total):
    """Whether ``step`` goes into ``total`` a whole number of times, within
    1e-9 relative (the closed loop runs round(total / step) steps)."""
    n = round(total / step)
    return abs(n * step - total) <= 1e-9 * max(1.0, total)


def parse_max_ms(raw, path):
    """A per-solve time budget in ms: finite and positive."""
    value = _number(raw, path)
    _require(value > 0, path, "must be positive")
    return value


def _matrix(raw, path, shape=None):
    try:
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a numeric matrix")
    _require(np.all(np.isfinite(M)), path, "entries must be finite")
    if shape is not None:
        _require(M.shape == shape, path, f"expected shape {shape}, got {M.shape}")
    return M


@dataclass
class ScenarioConfig:
    plant: str
    controller: str = "mpc"
    network: str | None = None        # path; None = packaged fixture
    workspace_lower: np.ndarray | None = None
    workspace_upper: np.ndarray | None = None
    u_max: np.ndarray | None = None   # tightening bounds (plant default if None)
    u_min: np.ndarray | None = None
    eps: np.ndarray | None = None     # recorded certification margin
    grid_deltas: np.ndarray | None = None
    taylor_u_max: np.ndarray | None = None  # output bound for the per-cell table
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    N_p: int = 5
    T_s: float = 0.1
    gamma: float | None = None
    gain: np.ndarray | None = None
    P: np.ndarray | None = None
    big_m: object = "exact"           # "exact" or a positive number
    x0: np.ndarray | None = None
    duration: float = 10.0
    substep: float = 1e-3
    on_infeasible: str = "raise"
    reference: dict = field(default_factory=dict)
    max_nodes: int = 100_000
    max_ms: float | None = None
    fallback_max_nodes: int | None = None
    polygon_sides: int = 16
    base_dir: Path = Path(".")

    def resolve_path(self, name):
        p = Path(name)
        if p.is_absolute():
            return p
        cand = self.base_dir / p
        if cand.exists():
            return cand
        return Path(__file__).parent / "data" / name


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML ({e})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_scenario(raw, base_dir=path.parent)


def parse_scenario(raw: dict, base_dir=Path(".")) -> ScenarioConfig:
    plant = raw.get("plant")
    _require(plant in VALID_PLANTS, "plant", f"must be one of {VALID_PLANTS}")
    cfg = ScenarioConfig(plant=plant, base_dir=Path(base_dir))

    ctl = raw.get("controller", "mpc")
    _require(ctl in VALID_CONTROLLERS, "controller",
             f"must be one of {VALID_CONTROLLERS}")
    cfg.controller = ctl
    if "network" in raw:
        _require(isinstance(raw["network"], str), "network", "expected a path string")
        cfg.network = raw["network"]

    ws = raw.get("workspace", {})
    if ws:
        lower = _matrix(ws.get("lower"), "workspace.lower")
        upper = _matrix(ws.get("upper"), "workspace.upper")
        _require(lower.shape == upper.shape, "workspace", "lower/upper shape mismatch")
        _require(np.all(upper > lower), "workspace", "upper must exceed lower")
        cfg.workspace_lower, cfg.workspace_upper = lower, upper

    tight = raw.get("tightening", {})
    if "u_max" in tight:
        cfg.u_max = np.atleast_1d(_matrix(tight["u_max"], "tightening.u_max"))
    if tight.get("u_min") is not None:
        cfg.u_min = np.atleast_1d(_matrix(tight["u_min"], "tightening.u_min"))
    if "eps" in tight:
        cfg.eps = np.atleast_1d(_matrix(tight["eps"], "tightening.eps"))
        _require(np.all(cfg.eps >= 0), "tightening.eps", "must be nonnegative")

    grid = raw.get("grid", {})
    if "deltas" in grid:
        cfg.grid_deltas = np.atleast_1d(_matrix(grid["deltas"], "grid.deltas"))
        _require(np.all(cfg.grid_deltas > 0), "grid.deltas", "must be positive")
    if "taylor_u_max" in grid:
        cfg.taylor_u_max = np.atleast_1d(_matrix(grid["taylor_u_max"],
                                                 "grid.taylor_u_max"))

    tun = raw.get("tuning", {})
    for key, attr in (("Q", "Q"), ("R", "R"), ("P", "P"), ("K", "gain")):
        if key in tun:
            setattr(cfg, attr, np.atleast_2d(_matrix(tun[key], f"tuning.{key}")))
    if "N_p" in tun:
        cfg.N_p = _integer(tun["N_p"], "tuning.N_p", 1)
    if "T_s" in tun:
        cfg.T_s = _number(tun["T_s"], "tuning.T_s")
        _require(cfg.T_s > 0, "tuning.T_s", "must be positive")
    if "gamma" in tun:
        cfg.gamma = _number(tun["gamma"], "tuning.gamma")
        _require(cfg.gamma > 0, "tuning.gamma", "must be positive")
    if "big_m" in tun:
        bm = tun["big_m"]
        _require(bm == "exact" or (isinstance(bm, (int, float))
                                   and not isinstance(bm, bool) and 0 < bm < np.inf),
                 "tuning.big_m", "must be 'exact' or a finite positive number")
        cfg.big_m = bm

    sim = raw.get("simulation", {})
    if "x0" in sim:
        cfg.x0 = np.atleast_1d(_matrix(sim["x0"], "simulation.x0"))
    if "duration" in sim:
        cfg.duration = _number(sim["duration"], "simulation.duration")
        _require(cfg.duration > 0, "simulation.duration", "must be positive")
    if "substep" in sim:
        cfg.substep = _number(sim["substep"], "simulation.substep")
        _require(cfg.substep > 0, "simulation.substep", "must be positive")
    _require(_divides(cfg.substep, cfg.T_s), "simulation.substep",
             f"must divide tuning.T_s = {cfg.T_s:g} into whole RK4 substeps, "
             f"got {cfg.substep:g}")
    _require(_divides(cfg.T_s, cfg.duration), "simulation.duration",
             f"must be a whole number of samples of tuning.T_s = {cfg.T_s:g}, "
             f"got {cfg.duration:g}")
    if "on_infeasible" in sim:
        _require(sim["on_infeasible"] in ("raise", "hold"), "simulation.on_infeasible",
                 "must be 'raise' or 'hold'")
        cfg.on_infeasible = sim["on_infeasible"]

    cfg.reference = raw.get("reference", {}) or {}
    _require(isinstance(cfg.reference, dict), "reference", "must be a mapping")
    if "type" in cfg.reference:
        kind = REFERENCE_TYPES.get(plant)
        _require(kind is not None, "reference.type", f"plant {plant} takes no reference")
        _require(cfg.reference["type"] == kind, "reference.type",
                 f"must be '{kind}' for plant {plant}, got {cfg.reference['type']!r}")
    for key in ("radius", "speed", "start_deg", "end_deg"):
        if key in cfg.reference:
            cfg.reference[key] = _number(cfg.reference[key], f"reference.{key}")

    bud = raw.get("budgets", {})
    if "max_nodes" in bud:
        cfg.max_nodes = _integer(bud["max_nodes"], "budgets.max_nodes", 0)
    if bud.get("max_ms") is not None:
        cfg.max_ms = parse_max_ms(bud["max_ms"], "budgets.max_ms")
    if bud.get("fallback_max_nodes") is not None:
        cfg.fallback_max_nodes = _integer(bud["fallback_max_nodes"],
                                          "budgets.fallback_max_nodes", 0)

    if "polygon_sides" in raw:
        cfg.polygon_sides = _integer(raw["polygon_sides"], "polygon_sides", 3)
    return cfg
