from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flatpwa import polytope, relupwa
from flatpwa.config import load_scenario
from flatpwa.miencoding import build_admissible_union, compute_big_m
from flatpwa.numkernel import OPTIMAL, LpProblem, solve_lp
from flatpwa.pipeline import build_pipeline, certification_problem, run_taylor_table
from flatpwa.polytope import (HPolytope, StackedRows, box_bounds, find_point,
                              intersect, is_empty, row_violations, vertices)
from flatpwa.relupwa import enumerate_cells
from flatpwa.tolerances import DEFAULT

SCENARIOS = Path(__file__).parents[1] / "src" / "flatpwa" / "data" / "scenarios"


def unit_box(d=2):
    return HPolytope.box(-np.ones(d), np.ones(d))


def test_empty_contradictory():
    assert is_empty(HPolytope([[1.0], [-1.0]], [1.0, -2.0]))


def test_unit_box_nonempty_with_witness():
    P = unit_box()
    x = find_point(P)
    assert x is not None
    assert np.max(P.A @ x - P.b) <= 1e-8


def unit_residuals(P, x):
    """Row violations at x over P's rows scaled to unit norm (distances)."""
    return (P.A @ x - P.b) / np.linalg.norm(P.A, axis=1)


@pytest.mark.parametrize("delta, empty", [(1e-7, True), (5e-9, False)],
                         ids=["width-1e-7-empty", "width-5e-9-kept"])
def test_find_point_sliver(delta, empty):
    # {delta <= x <= 0}, alone and in a 2-D box with every row scaled by 5,
    # which leaves the set and the verdict as they are; HiGHS's own 1e-7
    # primal tolerance let the 1e-7 sliver through
    line = HPolytope([[1.0], [-1.0]], [0.0, -delta])
    boxed = HPolytope(5.0 * np.vstack([np.eye(2), -np.eye(2)]),
                      5.0 * np.array([0.0, 1.0, -delta, 1.0]))
    for P in (line, boxed):
        x = find_point(P)
        assert (x is None) == empty
        if x is not None:
            assert unit_residuals(P, x).max() <= DEFAULT.feas


def phase_one_slack(P):
    """Reference: the smallest largest violation of P's unit-scaled rows
    (HiGHS LP), floored at -1; negative means a point with that margin."""
    m, d = P.A.shape
    inv = 1.0 / np.linalg.norm(P.A, axis=1)
    res = solve_lp(LpProblem(np.r_[np.zeros(d), 1.0],
                             G=np.hstack([P.A * inv[:, None], -np.ones((m, 1))]),
                             h=P.b * inv, bounds=[(None, None)] * d + [(-1.0, None)]))
    assert res.status == OPTIMAL
    return res.x[-1]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), m=st.integers(1, 11),
       gap=st.sampled_from([None, -1e-4, -3e-6, -1e-7, 0.0, 1e-9, 1.5e-8, 1e-7,
                            3e-6, 1e-4]))
def test_find_point_verdict_matches_phase_one_lp(seed, d, m, gap):
    # rows of scales 1e-2 to 1e3; with ``gap`` the last row faces the first
    # across a slab of that width (negative: they overlap) at a point every
    # other row keeps, so the slack is gap / 2; slacks within 1e-6 are where
    # the two solvers' tolerances may disagree, and are counted, not asserted
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-2.0, 3.0, size=(m, 1))
    norms = np.linalg.norm(A, axis=1)
    x_in = rng.uniform(-1.0, 1.0, size=d)
    if gap is None:
        b = A @ x_in + rng.normal(scale=0.5, size=m) * norms
    else:
        b = A @ x_in + rng.uniform(0.0, 1.0, size=m) * norms
        b[0] = A[0] @ x_in
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        A = np.vstack([A, -scale * A[0]])
        b = np.r_[b, -scale * (b[0] + gap * norms[0])]
    P = HPolytope(A, b)
    slack = phase_one_slack(P)
    x = find_point(P)
    if abs(slack) <= 1e-6:
        agrees = (x is None) == (slack > DEFAULT.feas)
        event(f"slack within 1e-6: verdict {'agrees' if agrees else 'differs'}")
    elif slack > 0.0:
        assert x is None
    else:
        assert x is not None
    if x is not None:
        assert unit_residuals(P, x).max() <= DEFAULT.feas


def test_aircraft_pattern_census(aircraft_net, aircraft_plant):
    # all 8 candidate sign patterns over the workspace: exactly 3 non-empty
    from itertools import product
    from flatpwa.relupwa import pattern_halfspaces
    alive = 0
    for bits in product((-1, 1), repeat=3):
        cell = intersect(pattern_halfspaces(aircraft_net, np.array(bits)),
                         aircraft_plant.net_workspace)
        alive += not is_empty(cell)
    assert alive == 3


def test_intersect_box_halfplane():
    P = intersect(unit_box(), HPolytope([[1.0, 0.0]], [0.0]))
    assert not is_empty(P)
    assert P.contains([-0.5, 0.0]) and not P.contains([0.5, 0.0])


def test_intersect_idempotent_as_sets():
    P = unit_box()
    Q = intersect(P, P)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    for x in pts:
        assert P.contains(x) == Q.contains(x)


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(unit_box(2), unit_box(3))


def test_zero_row_negative_offset_flagged():
    with pytest.raises(ValueError):
        HPolytope([[0.0, 0.0]], [-1.0])


def test_vertices_unit_box():
    V = vertices(unit_box())
    assert len(V) == 4
    expect = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    got = {tuple(np.round(v).astype(int)) for v in V.points}
    assert got == expect


def test_vertices_simplex():
    A = np.vstack([-np.eye(2), np.ones((1, 2))])
    b = np.array([0.0, 0.0, 1.0])
    V = vertices(HPolytope(A, b))
    assert len(V) == 3


def test_vertices_unbounded_rejected():
    # a half-plane has fewer rows than dimensions; a quadrant and a strip
    # have enough, so only the boundedness test rejects them
    for P in (HPolytope([[1.0, 0.0]], [1.0]),
              HPolytope(np.eye(2), [1.0, 1.0]),
              HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])):
        with pytest.raises(ValueError, match="unbounded"):
            vertices(P)


def test_vertices_dimension_guard():
    with pytest.raises(ValueError):
        vertices(HPolytope.box(-np.ones(7), np.ones(7)))


def test_vertices_paper_cell(paper_cell2):
    # every returned vertex satisfies the rows, with equality on >= 2 rows
    V = vertices(paper_cell2)
    assert len(V) >= 3
    for v in V.points:
        resid = paper_cell2.A @ v - paper_cell2.b
        assert resid.max() <= 1e-8
        assert np.sum(np.abs(resid) <= 1e-7) >= 2


def test_vertices_are_extreme():
    # perturbing along any active-set null direction must leave the polytope
    P = unit_box()
    V = vertices(P)
    for v, rows in zip(V.points, V.supports):
        act = P.A[list(rows)]
        null = np.linalg.svd(act)[2][np.linalg.matrix_rank(act):]
        for d in null:
            assert not (P.contains(v + 1e-5 * d) and P.contains(v - 1e-5 * d))


def test_l1_ball_aircraft_cells_match_published_table(aircraft_cells):
    # the published per-cell analysis centers the ball at the vertex centroid
    # of the tightened cells (output bound 4, margin 0.1897)
    union = build_admissible_union(aircraft_cells, u_max=4.0, eps=0.1897)
    rows = []
    for cell in union.pieces:
        V = vertices(cell.polytope)
        c = V.points.mean(axis=0)
        rows.append((c, np.abs(V.points - c).sum(axis=1).max()))
    by_center_z = sorted(rows, key=lambda cr: cr[0][0])
    expect = [((-0.2732, 0.9732), 3.6495),
              ((-0.0019, -0.2092), 4.9177),
              ((0.2713, -1.3966), 3.6457)]
    for (c, r), (ce, re) in zip(by_center_z, expect):
        assert np.allclose(c, ce, atol=1e-2)
        assert r == pytest.approx(re, abs=1e-2)


def test_max_row_violation_own_box():
    Z = unit_box()
    assert row_violations(Z, Z).max() == pytest.approx(0.0, abs=1e-8)


def test_max_row_violation_halfline():
    P = HPolytope([[1.0]], [0.0])
    Z = HPolytope.box([-1.0], [1.0])
    assert row_violations(P, Z).max() == pytest.approx(1.0, abs=1e-8)


def test_max_row_violation_paper_cell(paper_cell2, aircraft_plant):
    M = row_violations(paper_cell2, aircraft_plant.net_workspace).max()
    assert M == pytest.approx(4.3247, abs=1e-2)


def test_max_row_violation_region_not_a_box():
    with pytest.raises(ValueError):
        row_violations(unit_box(1), HPolytope([[1.0]], [1.0])).max()


def test_row_violation_bounds_sampled(paper_cell2, aircraft_plant):
    Z = aircraft_plant.net_workspace
    M = row_violations(paper_cell2, Z).max()
    rng = np.random.default_rng(1)
    lo, hi = box_bounds(Z)
    pts = rng.uniform(lo, hi, size=(2000, 2))
    worst = (pts @ paper_cell2.A.T - paper_cell2.b).max()
    assert worst <= M + 1e-9


def test_chebyshev_center_inside(chebyshev_center):
    P = unit_box()
    c, r = chebyshev_center(P)
    assert P.contains(c)
    assert r == pytest.approx(1.0, abs=1e-8)


def test_stacked_rows_locate_tie_rule_and_reference(uav_cells):
    # two boxes sharing the facet x = 1 and a third far away: on the facet
    # both residuals are exactly 0 and the first box wins
    S = StackedRows.of([HPolytope.box([0.0, 0.0], [1.0, 1.0]),
                        HPolytope.box([1.0, 0.0], [2.0, 1.0]),
                        HPolytope.box([5.0, 5.0], [6.0, 6.0])])
    assert S.locate([1.0, 0.5]) == 0
    assert S.locate([1.5, 0.5]) == 1
    assert S.locate([3.0, 3.0]) == -1
    assert list(S.locate([[1.0, 0.5], [1.5, 0.5], [3.0, 3.0]])) == [0, 1, -1]

    def first_smallest(polytopes, y):
        best, best_r = -1, np.inf
        for j, P in enumerate(polytopes):
            r = P.residual(y)
            if r < best_r:
                best, best_r = j, r
        return best if best_r <= DEFAULT.feas else -1

    polys = [p.polytope for p in uav_cells.pieces]
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 24.0, size=(300, 2))     # the workspace is [3, 21]^2
    batch = uav_cells.stacked.locate(pts)
    for y, j in zip(pts, batch):
        assert uav_cells.stacked.locate(y) == first_smallest(polys, y) == j


def test_stacked_rows_layout():
    # every row's polytope, each polytope's rows: one record of the layout
    polys = [unit_box(), intersect(unit_box(), HPolytope([[1.0, 1.0]], [1.0])),
             unit_box()]
    S = StackedRows.of(polys)
    assert S.starts.tolist() == [0, 4, 9]
    assert S.slices == (slice(0, 4), slice(4, 9), slice(9, 13))
    assert S.owner.tolist() == [0] * 4 + [1] * 5 + [2] * 4
    for P, rows in zip(polys, S.slices):
        assert S.A[rows].tobytes() == P.A.tobytes()
        assert S.b[rows].tobytes() == P.b.tobytes()


def test_stacked_rows_locate_single_and_batch_agree(shipped_pipelines):
    # residuals round the same way for one point and for a batch: random
    # points, and points projected onto the network's kink hyperplanes,
    # where two cells share a facet and the rounding decides the tie
    for pipe in shipped_pipelines:
        U, net = pipe.ensure_union(), pipe.net
        lo, hi = box_bounds(pipe.workspace)
        rng = np.random.default_rng(11)
        pts = rng.uniform(lo, hi, size=(300, lo.size))
        k = rng.integers(net.n1, size=300)
        w, c = net.W1[k], net.b1[k]
        on_facet = pts - (((w * pts).sum(axis=1) + c) / (w * w).sum(axis=1))[:, None] * w
        ys = np.vstack([pts, on_facet])
        batch = U.stacked.locate(ys)
        assert [U.stacked.locate(y) for y in ys] == batch.tolist()
        held = [sum(p.polytope.residual(y) <= DEFAULT.feas for p in U.pieces)
                for y in on_facet]
        assert max(held) >= 2


def lp_row_violations(P, Z):
    """Reference: one HiGHS LP per row, max_{x in Z} a_j x - b_j."""
    out = []
    for a, b in zip(P.A, P.b):
        res = solve_lp(LpProblem(-a, G=Z.A, h=Z.b))
        assert res.status == OPTIMAL
        out.append(-res.objective - b)
    return np.array(out)


def test_box_bounds_round_trip():
    lo, hi = np.array([-2.0, 0.0, 3.5]), np.array([1.0, 0.0, 7.25])
    got_lo, got_hi = box_bounds(HPolytope.box(lo, hi))
    assert got_lo.tobytes() == lo.tobytes() and got_hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("Z", [
    HPolytope([[1.0]], [1.0]),                                    # half-line
    HPolytope(np.vstack([np.eye(2), -np.eye(2)])
              @ np.array([[np.cos(0.3), -np.sin(0.3)],
                          [np.sin(0.3), np.cos(0.3)]]), np.ones(4)),   # rotated box
], ids=["half-line", "rotated-box"])
def test_box_bounds_rejects_other_polytopes(Z):
    with pytest.raises(ValueError):
        box_bounds(Z)


def test_row_violations_match_per_row_lp_on_random_rows():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 5):
        for _ in range(10):
            lo = rng.uniform(-10.0, 5.0, size=d)
            Z = HPolytope.box(lo, lo + rng.uniform(0.0, 10.0, size=d))
            # some exact zeros: a zero coefficient may take either bound
            A = rng.normal(size=(8, d)) * rng.choice([0.0, 1.0], size=(8, d), p=[0.2, 0.8])
            A[np.abs(A).max(axis=1) == 0.0, 0] = 1.0
            P = HPolytope(A, rng.normal(size=8))
            assert row_violations(P, Z) == pytest.approx(lp_row_violations(P, Z),
                                                         rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def shipped_pipelines():
    return [build_pipeline(load_scenario(SCENARIOS / f"{name}.yaml"))
            for name in ("aircraft_mpc", "pmsm_case1", "uav_tracking")]


def test_row_violations_match_per_row_lp_on_shipped_unions(shipped_pipelines):
    for pipe in shipped_pipelines:
        for cell in pipe.ensure_union().pieces:
            assert row_violations(cell.polytope, pipe.workspace) == pytest.approx(
                lp_row_violations(cell.polytope, pipe.workspace), rel=1e-12, abs=1e-12)


def test_set_up_solves_no_lps(monkeypatch):
    # every feasibility question goes to the QP kernel, one emptiness QP per
    # candidate pattern; every solve_lp call would end in HiGHS's linprog
    def no_lp(*args, **kwargs):
        raise AssertionError("set-up called the LP backend")

    qps, candidates = [], []
    solve_qp, piece_for_pattern = polytope.solve_qp, relupwa.piece_for_pattern
    monkeypatch.setattr("scipy.optimize.linprog", no_lp)
    monkeypatch.setattr(polytope, "solve_qp",
                        lambda *a, **k: qps.append(1) or solve_qp(*a, **k))
    monkeypatch.setattr(relupwa, "piece_for_pattern",
                        lambda *a, **k: candidates.append(1) or piece_for_pattern(*a, **k))
    for name in ("aircraft_mpc", "pmsm_case1", "uav_tracking"):
        pipe = build_pipeline(load_scenario(SCENARIOS / f"{name}.yaml"))
        qps.clear()
        candidates.clear()
        enumerate_cells(pipe.net, pipe.workspace)
        assert len(qps) == len(candidates) > 0
        compute_big_m(pipe.ensure_union(), pipe.workspace)
        certification_problem(pipe)
        if pipe.cfg.plant == "aircraft":
            run_taylor_table(pipe)      # vertex enumeration tests boundedness
