import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flatpwa.numkernel import (INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED,
                               LpProblem, QpMatrices, QpProblem,
                               _DualActiveSet,
                               eig_sym, solve_lp, solve_qp)
import flatpwa
from flatpwa import miqpsolver
from flatpwa.config import load_scenario
from flatpwa.pipeline import build_controller, build_pipeline
from flatpwa.simulate import run_closed_loop
from flatpwa.tolerances import DEFAULT

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = Path(flatpwa.__file__).parent / "data" / "scenarios"


def duality_gap(p, res):
    gap = res.objective
    if p.G is not None:
        gap -= p.h @ res.ineq_dual
    if p.E is not None:
        gap -= p.d @ res.eq_dual
    return abs(gap)


def test_lp_single_active_constraint():
    p = LpProblem(c=[-1.0], G=[[1.0], [-1.0]], h=[3.0, 0.0])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(3.0, abs=1e-8)
    assert res.objective == pytest.approx(-3.0, abs=1e-8)
    assert duality_gap(p, res) <= 1e-6


def test_import_loads_no_scipy():
    # only solve_lp, the LP reference, needs scipy, and importing it took
    # most of the package's import time
    code = ("import sys, flatpwa; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "[]"


def test_lp_contradictory_bounds_infeasible():
    res = solve_lp(LpProblem(c=[1.0], G=[[1.0], [-1.0]], h=[1.0, -2.0]))
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    res = solve_lp(LpProblem(c=[-1.0], G=[[-1.0]], h=[0.0]))
    assert res.status == UNBOUNDED


def test_lp_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], G=[[1.0]], h=[1.0])


def test_lp_aircraft_cells_feasibility(aircraft_net, aircraft_plant, aircraft_cells):
    # oracle: locate an interior point per surviving pattern by scanning a
    # coarse grid of the workspace and reading activation signs
    params = aircraft_plant.extras["params"]
    zs = np.linspace(-params.phi_bar * 0.99, params.phi_bar * 0.99, 41)
    vs = np.linspace(-params.v_bar * 0.99, params.v_bar * 0.99, 41)
    pts = np.array([[a, b] for a in zs for b in vs])
    pre = pts @ aircraft_net.W1.T + aircraft_net.b1
    interior = np.abs(pre).min(axis=1) > 1e-3
    patterns = {tuple(np.where(row >= 0, 1, -1)) for row in pre[interior]}
    assert patterns == set(aircraft_cells.patterns)
    # each cell's phase-one LP must come back feasible (Optimal)
    for piece in aircraft_cells.pieces:
        m, d = piece.polytope.A.shape
        c = np.zeros(d + 1)
        c[-1] = 1.0
        G = np.hstack([piece.polytope.A, -np.ones((m, 1))])
        res = solve_lp(LpProblem(c, G=G, h=piece.polytope.b,
                                 bounds=[(None, None)] * d + [(0.0, None)]))
        assert res.status == OPTIMAL and res.x[-1] <= 1e-8


def test_qp_halfline_projection():
    p = QpProblem(H=[[2.0]], g=[-2.0], G=[[1.0]], h=[0.0], c0=1.0)
    res = solve_qp(p)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_qp_unconstrained_minimum():
    res = solve_qp(QpProblem(H=2.0 * np.eye(3), g=np.zeros(3)))
    assert res.status == OPTIMAL
    assert np.linalg.norm(res.x) <= 1e-9


def test_qp_box_projection():
    # min ||x - (2, 2)||^2 over the unit box
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.ones(4)
    p = QpProblem(H=2.0 * np.eye(2), g=[-4.0, -4.0], G=G, h=h, c0=8.0)
    res = solve_qp(p)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-8)
    assert res.objective == pytest.approx(2.0, abs=1e-8)


def kkt_residual(p, res):
    lam = res.ineq_dual if res.ineq_dual is not None else np.zeros(0)
    grad = p.H @ res.x + p.g
    if p.G is not None:
        grad = grad + p.G.T @ lam
    if p.E is not None:
        grad = grad + p.E.T @ res.eq_dual
    r = [np.abs(grad).max()]
    if p.G is not None:
        slack = p.h - p.G @ res.x
        r.append(max(0.0, -slack.min()))               # primal feasibility
        r.append(max(0.0, -lam.min()))                 # dual feasibility
        r.append(np.abs(lam * slack).max())            # complementarity
    if p.E is not None:
        r.append(np.abs(p.E @ res.x - p.d).max())
    return max(r)


def test_qp_kkt_residuals_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = rng.integers(2, 6)
        A = rng.normal(size=(n, n))
        H = A @ A.T + 0.1 * np.eye(n)
        g = rng.normal(size=n)
        G = rng.normal(size=(2 * n, n))
        h = rng.uniform(0.5, 2.0, size=2 * n)  # origin strictly feasible
        p = QpProblem(H=H, g=g, G=G, h=h)
        res = solve_qp(p)
        assert res.status == OPTIMAL
        assert kkt_residual(p, res) <= 1e-7


def test_qp_solution_is_fixed_point():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    p = QpProblem(H=A @ A.T + np.eye(4), g=rng.normal(size=4),
                  G=rng.normal(size=(6, 4)), h=rng.uniform(1, 2, size=6))
    res = solve_qp(p)
    res2 = solve_qp(p, x0=res.x, active_set=res.active_set)
    assert np.abs(res2.x - res.x).max() <= 1e-9


def test_qp_matches_lp_when_quadratic_vanishes():
    c = np.array([1.0, -2.0])
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.ones(4)
    lp = solve_lp(LpProblem(c, G=G, h=h))
    qp = solve_qp(QpProblem(H=np.zeros((2, 2)), g=c, G=G, h=h))
    assert lp.status == qp.status == OPTIMAL
    assert np.allclose(lp.x, qp.x, atol=1e-4)
    assert qp.objective == pytest.approx(lp.objective, abs=1e-6)


def test_qp_infeasible_status():
    p = QpProblem(H=[[2.0]], g=[0.0], G=[[1.0], [-1.0]], h=[1.0, -2.0])
    assert solve_qp(p).status == INFEASIBLE


def test_qp_iteration_cap_is_a_status():
    G = np.vstack([np.eye(2), -np.eye(2)])
    p = QpProblem(H=2.0 * np.eye(2), g=[-4.0, -4.0], G=G, h=np.ones(4))
    capped = solve_qp(p, max_iter=1)
    assert capped.status == ITERATION_LIMIT and capped.x is None
    assert solve_qp(p, max_iter=capped.iterations + 3).status == OPTIMAL


def phase_one_violation(p):
    """Oracle: the smallest achievable largest row violation (HiGHS LP)."""
    n = p.n
    G1 = np.hstack([p.G, -np.ones((p.G.shape[0], 1))])
    E1 = None if p.E is None else np.hstack([p.E, np.zeros((p.E.shape[0], 1))])
    res = solve_lp(LpProblem(np.r_[np.zeros(n), 1.0], G=G1, h=p.h, E=E1, d=p.d,
                             bounds=[(None, None)] * n + [(0.0, None)]))
    return np.inf if res.status == INFEASIBLE else res.x[-1]


@settings(max_examples=80, deadline=None)
# draws that once needed, in turn: the solve on the working set without the
# proximal term, the step down a flat face, and rounding slack for |lam| ~ 1e7
@example(seed=143410665, n_cost=3, n_free=2, n_pinned=1, n_rows=2, n_big=3,
         mode="shifted")
@example(seed=3199106490, n_cost=1, n_free=2, n_pinned=1, n_rows=1, n_big=1,
         mode="feasible")
@example(seed=1875758773, n_cost=4, n_free=3, n_pinned=2, n_rows=7, n_big=1,
         mode="shifted")
@given(seed=st.integers(0, 2**32 - 1), n_cost=st.integers(0, 4),
       n_free=st.integers(0, 3), n_pinned=st.integers(0, 2),
       n_rows=st.integers(1, 8), n_big=st.integers(0, 3),
       mode=st.sampled_from(["feasible", "contradiction", "shifted"]))
def test_qp_property_random_structures(seed, n_cost, n_free, n_pinned, n_rows,
                                       n_big, mode):
    # columns: costed | cost-free, boxed in [0, 1] like relaxed binaries |
    # cost-free, pinned to the costed ones by an equality row
    rng = np.random.default_rng(seed)
    n_pinned = n_pinned if n_cost else 0
    assume(n_cost + n_free > 0)
    n = n_cost + n_free + n_pinned
    H = np.zeros((n, n))
    A = rng.normal(size=(n_cost, n_cost))
    H[:n_cost, :n_cost] = A @ A.T + 0.1 * np.eye(n_cost)
    g = np.zeros(n)
    g[:n_cost + n_free] = rng.normal(size=n_cost + n_free)
    x_in = np.r_[rng.uniform(-1.0, 1.0, n_cost), rng.uniform(0.0, 1.0, n_free),
                 np.zeros(n_pinned)]
    E_rows = []
    for k in range(n_pinned):
        row = np.zeros(n)
        row[:n_cost] = rng.normal(size=n_cost)
        row[n_cost + n_free + k] = -1.0
        E_rows.append(row)
    if n_free > 1 and rng.random() < 0.5:     # cardinality-like row
        row = np.zeros(n)
        row[n_cost:n_cost + n_free] = 1.0
        E_rows.append(row)
    E = np.array(E_rows) if E_rows else None
    if n_pinned:
        x_in[n_cost + n_free:] = E[:n_pinned, :n_cost] @ x_in[:n_cost]
    d = None if E is None else E @ x_in
    G = rng.normal(size=(n_rows, n))
    h = G @ x_in + rng.choice([0.0, 0.3, 1.0], size=n_rows)
    if mode == "contradiction":
        G = np.vstack([G, -G[0]])
        h = np.r_[h, -h[0] - 0.5]
    elif mode == "shifted":
        h = h - rng.uniform(0.0, 2.0, size=h.size) * np.linalg.norm(G, axis=1)
    big = rng.choice(G.shape[0], size=min(n_big, G.shape[0]), replace=False)
    G[big] *= 5000.0                          # big-M scale rows
    h[big] *= 5000.0
    box = np.zeros((2 * n_free, n))
    box[np.arange(n_free), n_cost + np.arange(n_free)] = 1.0
    box[n_free + np.arange(n_free), n_cost + np.arange(n_free)] = -1.0
    G = np.vstack([G, box])
    h = np.r_[h, np.ones(n_free), np.zeros(n_free)]
    p = QpProblem(H=H, g=g, G=G, h=h, E=E, d=d)

    violation = phase_one_violation(p)
    assume(violation <= 1e-9 or violation >= 1e-6)   # skip knife-edge draws
    res = solve_qp(p)
    if violation <= 1e-9:
        assert res.status == OPTIMAL
        # rounding in lam * slack grows with |lam| |G| |x|
        rounding = 1e-12 * np.abs(res.ineq_dual).max() * np.abs(G).max() \
            * max(1.0, np.abs(res.x).max())
        assert kkt_residual(p, res) <= 1e-6 + rounding
    else:
        assert res.status == INFEASIBLE


def test_qp_pinned_cost_free_column_takes_one_pass():
    # x2 carries no cost but the equality pins it to the costed x1 (like an
    # unweighted terminal state): no proximal term, so a single pass
    p = QpProblem(H=np.diag([2.0, 0.0]), g=[-2.0, 0.0], E=[[1.0, -1.0]], d=[0.0])
    res = solve_qp(p)
    assert res.status == OPTIMAL and res.iterations == 1
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)


def test_qp_singular_costed_block():
    # cost on x1 + x2 only: no column is cost-free, yet H is singular, so the
    # proximal term goes on every column
    H = np.array([[2.0, 2.0], [2.0, 2.0]])
    G = np.vstack([np.eye(2), -np.eye(2)])
    p = QpProblem(H=H, g=[-1.0, 0.5], G=G, h=np.ones(4))
    res = solve_qp(p)
    assert res.status == OPTIMAL
    assert kkt_residual(p, res) <= 1e-7


def test_qp_feasible_face_minimiser_is_the_next_centre():
    # a stiff costed column (it sets the proximal weight rho = 200), a nearly
    # flat one and three relaxed binaries: each proximal pass moves the
    # binaries by about the flat column's slope over rho. The minimiser on
    # the working rows' face is feasible, though one of their multipliers
    # is negative there; taken as the next centre, it ends the crawl
    # (re-centring at each pass's own solution took 50 iterations)
    G = np.array([[1.3, 1.2, -1.0, 0.0, -0.3], [-0.4, 0.3, -0.9, -1.3, -0.7],
                  [-1.0, 0.8, -0.1, 0.8, 0.5], [-0.4, -1.2, -0.6, 0.9, 0.6]])
    p = QpProblem(H=np.diag([200.0, 1e-3, 0.0, 0.0, 0.0]), g=[-4.0, 2.0, 0.0, 0.0, 0.0],
                  G=np.vstack([G, np.eye(5)[2:], -np.eye(5)[2:]]),
                  h=np.r_[-0.4, 0.5, -0.4, 1.2, np.ones(3), np.zeros(3)],
                  E=[[0.0, 0.0, 1.0, 1.0, 1.0]], d=[2.0])
    res = solve_qp(p)
    assert res.status == OPTIMAL and res.iterations <= 12
    assert kkt_residual(p, res) <= 1e-7


def test_pmsm_root_relaxation_does_not_crawl():
    # pmsm_case1's second sample from its shipped x0: the root relaxation,
    # warm started at the hint leaf's point, took 277 iterations when every
    # proximal pass re-centred at its own solution
    pipe = build_pipeline(load_scenario(SCENARIOS / "pmsm_case1.yaml"))
    ctl, x0, _ = build_controller(pipe)
    calls = []

    def spy(prob, **kwargs):
        res = solve_qp(prob, **kwargs)
        calls.append((prob, res))
        return res

    def second_sample(z, k):
        calls.clear()
        return ctl(z, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(miqpsolver, "solve_qp", spy)
        cfg = pipe.cfg
        run_closed_loop(pipe.plant, second_sample, x0, T_sim=2 * cfg.T_s, T_s=cfg.T_s,
                        h=cfg.substep)
    n = max(prob.n for prob, _ in calls)
    prob, res = next((prob, res) for prob, res in calls if prob.n == n)
    assert res.status == OPTIMAL and res.iterations <= 20
    assert kkt_residual(prob, res) <= 1e-7
    assert res.objective == pytest.approx(solve_qp(prob).objective, abs=1e-9)


def test_qp_rejects_indefinite_cost():
    with pytest.raises(ValueError):
        QpProblem(H=[[1.0, 0.0], [0.0, -1.0]], g=[0.0, 0.0])


@pytest.mark.parametrize("matrices, message", [
    (dict(H=[[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
    (dict(H=np.eye(2), G=[[1.0, np.nan]]), "G contains non-finite"),
    (dict(H=np.eye(2), E=[[np.inf, 1.0]]), "E contains non-finite"),
])
def test_qp_record_checks_its_matrices(matrices, message):
    with pytest.raises(ValueError, match=message):
        QpProblem(g=[0.0, 0.0], h=[1.0], d=[0.0], **matrices)


def test_qp_record_checks_swapped_rows_and_is_not_given_twice():
    mats = QpMatrices.of(np.eye(2))
    with pytest.raises(ValueError, match="G contains non-finite"):
        mats.with_rows([[np.inf, 0.0]])
    with pytest.raises(ValueError, match="not both"):
        QpProblem(H=np.eye(2), g=[0.0, 0.0], matrices=mats)
    p = QpProblem(g=[-2.0, 0.0], h=[0.5], matrices=mats.with_rows([[1.0, 0.0]]))
    assert solve_qp(p).x[0] == pytest.approx(0.5)


def test_qp_warm_start_from_parent_active_set():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 5))
    H = A @ A.T + np.eye(5)
    g = rng.normal(size=5)
    G = rng.normal(size=(8, 5))
    h = rng.uniform(1, 2, size=8)
    cold = solve_qp(QpProblem(H=H, g=g, G=G, h=h))
    warm = solve_qp(QpProblem(H=H, g=g * 1.01, G=G, h=h), x0=cold.x,
                    active_set=cold.active_set)
    assert warm.status == OPTIMAL
    assert warm.iterations <= cold.iterations + 2


def test_qp_dependence_threshold():
    # Tolerances.qp_dependence: a row whose step direction, the residual of
    # its column J'a off the working rows' columns, is at most this times
    # |J'a| counts as dependent (it would otherwise enter with a step of
    # 1/|residual|^2); one just above it is independent. The test is
    # relative, so scaling the cost by 100 leaves every decision in place
    G = np.array([[1.0, 0.0],
                  [1.0, 0.1 * DEFAULT.qp_dependence],
                  [1.0, 10.0 * DEFAULT.qp_dependence]])
    for scale in (1.0, 100.0):
        gi = _DualActiveSet(QpMatrices.of(scale * np.eye(2), G), np.ones(3),
                            DEFAULT.qp_dual_cap)
        gi.seed([0], np.array([2.0, 0.0]))
        assert gi.work == [0]
        assert gi._residual(1)[1] is None
        z = gi._residual(2)[1]
        assert np.allclose(np.abs(z) / np.linalg.norm(gi._row(2)),
                           [0.0, 10.0 * DEFAULT.qp_dependence], rtol=1e-6)


def test_eig_identity():
    assert np.allclose(eig_sym(np.eye(2)), [1.0, 1.0])


def test_eig_known_spectrum():
    assert np.allclose(eig_sym([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-12)


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym([[0.0, 1.0], [0.0, 0.0]])


def test_eig_aircraft_lmi_matrix():
    # invert the published P, evaluate the decrease LMI; every eigenvalue
    # must come out nonpositive
    P = np.array([[0.1430, 0.1932], [0.1932, 0.6378]])
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Psi = np.linalg.inv(P)
    M = Psi @ A.T + A @ Psi - 2.0 * B @ B.T + 0.05 * Psi
    evals = eig_sym(0.5 * (M + M.T))
    assert np.all(evals <= 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=12345))
def test_lp_duality_gap_property(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    G = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(n, n))])
    h = np.concatenate([np.full(2 * n, rng.uniform(0.5, 3.0)),
                        rng.uniform(0.5, 3.0, size=n)])
    p = LpProblem(c, G=G, h=h)
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert duality_gap(p, res) <= 1e-6
