"""The benchmark's workloads: seeded inputs, timed phases and output checks.

Every workload runs a shipped scenario through the public pipeline
(``build_pipeline`` -> cells -> union -> big-M -> ``build_controller``),
then closed-loop trajectories (a step is one controller call), then the
grid certificate of its plant. Every run checks its outputs; a failed check
makes the run incorrect, nothing is dropped.

Scenarios run with their node budgets but without their wall-clock
``max_ms``: a solve the clock ends depends on how loaded the machine is,
and so would the run's outputs (from rest, the first PMSM step takes about
1.2 s alone and ran past pmsm's 2000 ms on a loaded machine, leaving no
incumbent, so the loop aborted). The solves that run longer than the
shipped ``max_ms`` are counted instead.

The timing metrics are the process's CPU time (``time.process_time``), not
wall time: on an idle core the two agree, but when other processes share
the cores, wall time also counts the waits for a core, which come and go
with the neighbours (a 20 ms PMSM step read 45 ms whenever it was
preempted). Wall-clock step times stay on the report lines.

The inputs of a run are fixed by the workload and the seed: the scenario's
own initial state first, then ``drawn`` states from the workload's box.
The run closes the loop from each of them once per ``PASS_S`` seconds of
``--seconds`` (at least once), so the mix of states never depends on how
fast the machine is. Set-up is repeated ``SETUPS_PER_PASS`` times in each
pass, spread over its trajectories, each time followed by enough
certification passes to keep up with ``CERTIFY_MIN_S`` per pass; their
times are the medians.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import flatpwa
from flatpwa import controllers, miqpsolver, pipeline, simulate
from flatpwa.config import load_scenario
from flatpwa.miencoding import encode_horizon
from flatpwa.numkernel import OPTIMAL
from flatpwa.relupwa import forward

from tracer import Tracer

SCENARIOS = Path(flatpwa.__file__).parent / "data" / "scenarios"
ORACLE_TOL = 1e-5          # |B&B objective - oracle objective|
OFF_GRID_SAMPLES = 100_000
PASS_S = 20.0
SETUPS_PER_PASS = 6
CERTIFY_MIN_S = 3.0


class Box:
    """Initial states from a box, as a seeded scrambled Sobol sequence.

    A power-of-two prefix of the sequence covers the box evenly; the seed
    picks the scrambling. With ``around_nominal`` the box is an offset from
    the scenario's own initial state."""

    def __init__(self, lo, hi, around_nominal=False):
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.around_nominal = around_nominal

    def sequence(self, seed, x_nominal):
        sobol = qmc.Sobol(d=self.lo.size, scramble=True, seed=seed)
        while True:
            for u in sobol.random_base2(m=8):
                x = self.lo + (self.hi - self.lo) * u
                yield x_nominal + x if self.around_nominal else x


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    box: Box                         # initial plant states after the shipped one
    drawn: int                       # trajectories from the box (a power of two)
    steps: int                       # samples per trajectory
    fixed: tuple = ()                # (x0, samples) run in every run after the shipped x0
    trace_trajectories: int = 1      # trajectory count of a traced run
    state_rows_gated: bool = True    # False: the program carries no state rows
    redraw_infeasible: bool = False  # skip a drawn state whose first step is infeasible
    oracle_steps: int = 0            # first step models checked against the oracle
    oracle_horizon: int | None = None  # re-encode them with this N_p (None: as solved)
    certify: str | None = None       # scenario with the plant's certificate grid


WORKLOADS = {w.name: w for w in (
    # Shipped x0 (0.2, 0), then C9's box and redraw rule
    # (tests/test_acceptance.py::test_c9_clf_decrease): [-0.2, 0.2] x
    # [-0.5, 0.5], drawing again when the first program is infeasible. Many
    # short trajectories: whether a step is cheap (about 1 ms) or dear
    # (3-10 ms) is set by the state, and with few long trajectories p90
    # flips between the two with the seed; at 15 samples 15 % of the steps
    # are dear, so p90 sits inside the dear steps, not on their edge. The
    # CLF program has no stall row: from the box corner (0.199, 0.483) the
    # loop crosses the stall row after 141 samples, so that state runs 300
    # samples in every run and the crossings are counted, not gated. The CLF
    # scenario has no grid section: the aircraft is certified on
    # aircraft_mpc.yaml's grid.
    Workload("clf_1khz", "aircraft_clf", Box([-0.2, -0.5], [0.2, 0.5]), drawn=256,
             steps=15, fixed=(((0.199, 0.483), 300),), trace_trajectories=18,
             redraw_infeasible=True,
             state_rows_gated=False, certify="aircraft_mpc"),
    # Shipped x0 (0.25, 0), C8's state, then C9's box. Not derived for
    # this controller: near 0.25 rad with a positive pitch rate its program
    # is (correctly) infeasible, and every state of C9's box ran without
    # violation or abort here.
    Workload("aircraft_mpc", "aircraft_mpc", Box([-0.2, -0.5], [0.2, 0.5]), drawn=16,
             steps=60, trace_trajectories=3, oracle_steps=3),
    # Shipped x0 (rest), then a box between rest and about half of the
    # equilibrium fluxes/momentum; the box is not taken from the scenario or
    # the paper. The oracle runs on N_p = 2 re-encodings because 9^5 cell
    # sequences take minutes per step model.
    Workload("pmsm_mpc", "pmsm_case1", Box([0.0, -0.002, 0.0], [0.05, 0.002, 0.05]),
             drawn=1, steps=120, trace_trajectories=2, oracle_steps=3,
             oracle_horizon=2),
    # Shipped on-path start of the turn, then a draw perturbed in position,
    # heading and speed; the box is not taken from the scenario or the paper.
    Workload("uav_track35", "uav_tracking",
             Box([-1.0, -1.0, -0.02, -0.3], [1.0, 1.0, 0.02, 0.3], around_nominal=True),
             drawn=1, steps=50),
)}


def _shipped(scenario):
    return load_scenario(SCENARIOS / f"{scenario}.yaml")


def _load(scenario):
    """The scenario without its wall-clock budget (see the module note)."""
    cfg = _shipped(scenario)
    cfg.max_ms = None
    return cfg


def _build_geometry(pipe):
    pipe.ensure_cells()
    pipe.ensure_union()
    pipe.ensure_big_m()


cpu_time = time.process_time     # every timing metric (see the module note)


def _timed(fn, *args):
    t0 = cpu_time()
    res = fn(*args)
    return cpu_time() - t0, res


class SolveLog:
    """Status of every ``controllers.solve_miqp`` call.

    It stays bound in untraced runs too (a list append per solve): the
    runner discards the controllers' per-step results, and the statuses
    are needed to count steps that were not certified optimal."""

    def __init__(self, max_ms, keep_models=0):
        self.entries = []          # (status, over the shipped max_ms, hint-only budget)
        self.models = []           # (model, result) of the first calls
        self.max_ms = max_ms
        self.keep_models = keep_models
        self._orig = None

    def __enter__(self):
        self._orig = orig = controllers.solve_miqp

        def recorded(model, *args, **kwargs):
            res = orig(model, *args, **kwargs)
            budget = kwargs.get("budget")
            over = self.max_ms is not None and 1e3 * res.wall_time_s > self.max_ms
            self.entries.append((res.status, over,
                                 budget is not None and budget.max_nodes == 0))
            if len(self.models) < self.keep_models:
                self.models.append((model, res))
            return res

        controllers.solve_miqp = recorded
        return self

    def __exit__(self, *exc):
        controllers.solve_miqp = self._orig


HINT_ONLY = "hint_only"    # a hint-only solve the scenario asked for (max_nodes 0)


@dataclass
class Trajectory:
    planned: int
    wall_s: float = 0.0
    solver_ms: list = field(default_factory=list)  # wall time per step, as the loop records it
    cpu_ms: list = field(default_factory=list)     # CPU time per controller call
    cpu_s: float = 0.0                             # CPU time of the loop
    statuses: list = field(default_factory=list)   # per step
    over_max_ms: int = 0
    input_violations: int = 0
    state_violations: int = 0
    aborted: bool = False
    stage_costs: list = field(default_factory=list)
    states: list = field(default_factory=list)

    @property
    def never_reached(self):
        return self.planned - len(self.statuses)

    @property
    def failed(self):
        """Steps without a certified-optimal solve, bar the hint-only solves
        the scenario asks for, plus steps never reached."""
        return self.never_reached + sum(s not in (OPTIMAL, HINT_ONLY) for s in self.statuses)


class Run:
    """One workload run: set-up, trajectories, oracle check."""

    def __init__(self, spec: Workload, seed: int, steps_cap=None):
        self.spec = spec
        self.seed = seed
        self.cfg = _load(spec.scenario)
        self.max_ms = _shipped(spec.scenario).max_ms
        self.cap = steps_cap
        self.steps = self._capped(spec.steps)
        self.redraws = 0
        self.pipe = None

    def _capped(self, steps):
        return min(steps, self.cap) if self.cap else steps

    def setup_once(self):
        """Config load to controller ready, in CPU seconds."""
        t0 = cpu_time()
        pipe = pipeline.build_pipeline(_load(self.spec.scenario))
        _build_geometry(pipe)
        pipeline.build_controller(pipe)
        self.pipe = pipe
        return cpu_time() - t0

    def initial_states(self, count):
        """``count`` (x0, samples) pairs: the scenario's initial state, the
        workload's fixed states, then drawn states."""
        _, x_nominal, _ = pipeline.build_controller(self.pipe)
        out = [(x_nominal, self.steps)]
        out += [(np.array(x0, dtype=float), self._capped(n)) for x0, n in self.spec.fixed]
        draws = self.spec.box.sequence(self.seed, x_nominal)
        while len(out) < count:
            x0 = next(draws)
            if not self.spec.redraw_infeasible or self._first_step_feasible(x0):
                out.append((x0, self.steps))
            else:
                self.redraws += 1
        return out[:count]

    def _first_step_feasible(self, x0):
        ctl, _, _ = pipeline.build_controller(self.pipe)
        try:
            ctl(self.pipe.plant.to_flat(x0), 0)
        except simulate.ControllerInfeasible:
            return False
        return True

    def trajectory(self, x0, steps, log: SolveLog, built=None) -> Trajectory:
        """One closed loop of ``steps`` samples from ``x0``; ``built`` is a
        ``build_controller`` result made beforehand (else one is built here,
        outside the timing)."""
        pipe, cfg = self.pipe, self.cfg
        ctl, _, info = built or pipeline.build_controller(pipe)
        tr = Trajectory(planned=steps)

        def monitored(z, k):
            first = len(log.entries)
            c0 = cpu_time()
            try:
                out = ctl(z, k)
            except simulate.ControllerInfeasible:
                tr.statuses.append("infeasible")
                raise
            finally:
                tr.cpu_ms.append(1e3 * (cpu_time() - c0))
            calls = log.entries[first:]
            status, _, hint_only = calls[-1] if calls else (OPTIMAL, False, False)
            if hint_only and status == miqpsolver.BUDGET_EXCEEDED:
                status = HINT_ONLY
            tr.statuses.append(status)
            tr.over_max_ms += sum(over for _, over, _ in calls)
            return out

        t0, c0 = time.perf_counter(), cpu_time()
        res = simulate.run_closed_loop(
            pipe.plant, monitored, x0, T_sim=steps * cfg.T_s, T_s=cfg.T_s,
            h=cfg.substep, union=pipe.ensure_union(),
            on_infeasible=cfg.on_infeasible)
        tr.wall_s = time.perf_counter() - t0
        tr.cpu_s = cpu_time() - c0
        tr.solver_ms = list(res.solver_ms)
        tr.input_violations = res.input_violations
        tr.state_violations = res.state_violations
        tr.aborted = res.infeasible_at is not None
        tr.states = [r.z for r in res.records]
        tr.stage_costs = [_stage_cost(info, k, r.z, r.v)
                          for k, r in enumerate(res.records)]
        return tr

    def oracle_gaps(self, log: SolveLog, first: Trajectory):
        """|B&B - oracle| objective gaps on the first step models."""
        k = self.spec.oracle_steps
        if self.spec.oracle_horizon is None:
            pairs = log.models[:k]
        else:
            _, _, info = pipeline.build_controller(self.pipe)
            spec, n = info["mpc_spec"], self.spec.oracle_horizon
            pairs = []
            for step, z in enumerate(first.states[:k]):
                z_ref, v_ref = info["refs"](step)
                model = encode_horizon(
                    self.pipe.ensure_union(), n, spec.A_d, spec.B_d, spec.Q, spec.R,
                    z, self.pipe.ensure_big_m(), state_rows=spec.state_rows,
                    input_map=spec.input_map, input_rows=spec.input_rows,
                    z_ref=z_ref[:n], v_ref=v_ref[:n])
                pairs.append((model, miqpsolver.solve_miqp(model, budget=spec.budget)))
        gaps = []
        for model, bb in pairs:
            oracle = miqpsolver.solve_by_cell_enumeration(model)
            if bb.status != OPTIMAL or oracle.status != OPTIMAL:
                gaps.append(np.inf if bb.status != oracle.status else 0.0)
            else:
                gaps.append(abs(bb.objective - oracle.objective))
        return gaps


def _stage_cost(info, k, z, v):
    """Realized stage cost against the scenario reference (Q, R); for CLF
    ||v - v_d(z)||^2."""
    if "clf_spec" in info:
        dv = v - info["clf_spec"].v_d(z)
        return float(dv @ dv)
    spec = info["mpc_spec"]
    z_ref, v_ref = np.zeros_like(z), np.zeros_like(v)
    if info["refs"] is not None:
        zr, vr = info["refs"](k)
        z_ref, v_ref = zr[0], vr[0]
    dz, dv = z - z_ref, v - v_ref
    return float(dz @ spec.Q @ dz + dv @ spec.R @ dv)


def run_workload(name, seed, seconds, trace, steps_cap=None):
    """Run one workload.

    Returns {"metrics", "checks", "info", "attempted", "failed"}: the
    end-to-end metrics when untraced, the per-layer metrics when traced.
    """
    spec = WORKLOADS[name]
    run = Run(spec, seed, steps_cap)
    m, checks, info = {}, {}, {}
    tracer = Tracer() if trace else None
    keep = spec.oracle_steps if spec.oracle_horizon is None else 0
    cert_pipe = _certify_pipeline(spec, run)

    reps, cert_reps, trajs = [], [], []
    with SolveLog(run.max_ms, keep_models=keep) as log:
        if trace:
            # fixed work, untraced then traced, so counts repeat for a seed;
            # controllers are built outside the traced block, which then
            # holds nothing but the closed loops
            with tracer.active():
                run.setup_once()
            x0s = run.initial_states(spec.trace_trajectories)
            untraced = [run.trajectory(x0, n, log) for x0, n in x0s]
            log.entries.clear()
            built = [pipeline.build_controller(run.pipe) for _ in x0s]
            before = tracer.self_sum()
            with tracer.active(plant=run.pipe.plant):
                trajs = [run.trajectory(x0, n, log, b) for (x0, n), b in zip(x0s, built)]
            wall_u = sum(t.wall_s for t in untraced)
            wall_t = sum(t.wall_s for t in trajs)
            runner = tracer.layers["simulate.run_closed_loop"].self_time
            named = tracer.self_sum() - before - runner
            m["trace.overhead_frac"] = wall_t / wall_u - 1.0
            m["trace.unattributed_frac"] = (wall_t - named) / wall_t
            with tracer.active():
                cert = _certify_pass(cert_pipe)
        else:
            reps.append(run.setup_once())
            x0s = run.initial_states(1 + len(spec.fixed) + spec.drawn)
            # the trajectories after which set-ups and certifications are
            # repeated, evenly spread so that their medians span the pass;
            # certification repeats while it is behind its share of
            # CERTIFY_MIN_S (at least once)
            after = [((j + 1) * len(x0s) - 1) // SETUPS_PER_PASS
                     for j in range(SETUPS_PER_PASS)]
            points = 0
            for _pass in range(max(1, round(seconds / PASS_S))):
                for i, (x0, n) in enumerate(x0s):
                    trajs.append(run.trajectory(x0, n, log))
                    for _ in range(after.count(i)):
                        reps.append(run.setup_once())
                        points += 1
                        share = CERTIFY_MIN_S * points / SETUPS_PER_PASS
                        while not cert_reps or sum(t for t, _ in cert_reps) < share:
                            cert_reps.append(_timed(_certify_pass, cert_pipe))
            cert = cert_reps[-1][1]
        first = trajs[:len(x0s)]
        oracle = run.oracle_gaps(log, first[0]) if spec.oracle_steps else []

    steps_total = sum(t.planned for t in trajs)
    # hint-only steps count here, unlike in ``failed``
    not_certified = sum(t.never_reached + sum(s != OPTIMAL for s in t.statuses)
                        for t in trajs)
    failed_frac = not_certified / steps_total
    tracking_cost = float(np.mean([c for t in first for c in t.stage_costs]))
    state_violation_steps = sum(t.state_violations for t in trajs)
    over_max_ms = sum(t.over_max_ms for t in trajs)
    if trace:
        m["miqpsolver.solve_miqp.over_max_ms"] = over_max_ms
        m["simulate.run_closed_loop.failed_frac"] = failed_frac
        m["simulate.run_closed_loop.tracking_cost"] = tracking_cost
        m["simulate.run_closed_loop.state_violation_steps"] = state_violation_steps
    else:
        ms = [x for t in trajs for x in t.cpu_ms]
        wall_ms = [x for t in trajs for x in t.solver_ms]
        m["setup_s"] = statistics.median(reps)
        m["step_ms_p50"] = float(np.percentile(ms, 50))
        m["step_ms_p90"] = float(np.percentile(ms, 90))
        m["loop_ms_per_step"] = 1e3 * sum(t.cpu_s for t in trajs) / len(wall_ms)
        m["certify_s"] = statistics.median(t for t, _ in cert_reps)
        info.update(step_ms_max=float(np.max(ms)), setup_reps=len(reps),
                    certify_reps=len(cert_reps),
                    wall_step_ms_p50=float(np.percentile(wall_ms, 50)),
                    wall_step_ms_p90=float(np.percentile(wall_ms, 90)),
                    wall_step_ms_max=float(np.max(wall_ms)),
                    wall_loop_ms_per_step=1e3 * sum(t.wall_s for t in trajs) / len(wall_ms))
    info.update(
        T_s_ms=1e3 * run.cfg.T_s, trajectories=len(trajs), steps_per_trajectory=run.steps,
        steps=sum(len(t.statuses) for t in trajs), failed_frac=failed_frac,
        tracking_cost=tracking_cost,
        hint_only_steps=sum(t.statuses.count(HINT_ONLY) for t in trajs),
        over_max_ms=over_max_ms, redraws=run.redraws,
        input_violation_steps=sum(t.input_violations for t in trajs),
        state_violation_steps=state_violation_steps)

    checks["no_input_violations"] = info["input_violation_steps"] == 0
    if spec.state_rows_gated:
        checks["no_state_violations"] = state_violation_steps == 0
    checks["no_infeasible_abort"] = not any(t.aborted for t in trajs)
    if spec.oracle_steps:
        info["oracle_max_gap"] = max(oracle)
        checks["bb_matches_oracle"] = max(oracle) <= ORACLE_TOL
    _check_certificate(cert_pipe, cert, seed, trace, m, checks, info)

    if trace:
        m = {**tracer.metrics(), **m}
    return {"metrics": m, "checks": checks, "info": info,
            "attempted": steps_total, "failed": sum(t.failed for t in trajs)}


def _certify_pipeline(spec, run):
    """The pipeline whose plant is certified, its geometry built."""
    if spec.certify:
        pipe = pipeline.build_pipeline(_load(spec.certify))
        _build_geometry(pipe)
        return pipe
    run.setup_once()
    return run.pipe


def _certify_pass(pipe):
    """Grid certificate (+ aircraft Taylor table) of the plant."""
    cert = pipeline.run_certification(pipe)
    if pipe.cfg.plant == "aircraft":
        pipeline.run_taylor_table(pipe)
    return cert


def _check_certificate(pipe, cert, seed, trace, m, checks, info):
    """The eps ratio, and the check that the certificate dominates the true
    error at seeded off-grid samples."""
    plant = pipe.cfg.plant
    eps = pipe.cfg.eps if pipe.cfg.eps is not None else pipeline.DEFAULT_EPS[plant]
    eps_bar = np.atleast_1d(cert.eps_bar)
    ratio = float(np.max(eps_bar / np.atleast_1d(eps)[:eps_bar.size]))

    true_map, net, (lo, hi), _, _ = pipeline.certification_problem(pipe)
    rng = np.random.default_rng([seed, 1])
    pts = rng.uniform(lo, hi, size=(OFF_GRID_SAMPLES, lo.size))
    nn = forward(net, pts)
    worst = np.abs(np.asarray(true_map(pts)).reshape(nn.shape[0], -1) - nn).max(axis=0)
    checks["certificate_dominates_off_grid"] = bool(np.all(worst <= eps_bar))
    info.update({f"eps_bar.{plant}": eps_bar.tolist(), f"eps_ratio.{plant}": ratio,
                 f"off_grid_max.{plant}": worst.tolist()})
    if trace:
        m[f"errorbounds.grid_error_certificate.eps_ratio.{plant}"] = ratio
    else:
        m["eps_ratio"] = ratio
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
