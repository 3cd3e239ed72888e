from pathlib import Path

import numpy as np
import pytest

from flatpwa import numkernel, polytope, relupwa
from flatpwa.config import load_scenario
from flatpwa.miencoding import build_admissible_union, compute_big_m
from flatpwa.numkernel import OPTIMAL, LpProblem, solve_lp
from flatpwa.pipeline import build_pipeline
from flatpwa.polytope import (HPolytope, StackedRows, box_bounds, chebyshev_center,
                              find_point, intersect, is_empty, max_row_violation,
                              row_violations, vertices)
from flatpwa.relupwa import enumerate_cells

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
    with pytest.raises(ValueError):
        vertices(HPolytope([[1.0, 0.0]], [1.0]))


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
    for cell in union.cells:
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
    assert max_row_violation(Z, Z) == pytest.approx(0.0, abs=1e-8)


def test_max_row_violation_halfline():
    P = HPolytope([[1.0]], [0.0])
    Z = HPolytope.box([-1.0], [1.0])
    assert max_row_violation(P, Z) == pytest.approx(1.0, abs=1e-8)


def test_max_row_violation_paper_cell(paper_cell2, aircraft_plant):
    M = max_row_violation(paper_cell2, aircraft_plant.net_workspace)
    assert M == pytest.approx(4.3247, abs=1e-2)


def test_max_row_violation_region_not_a_box():
    with pytest.raises(ValueError):
        max_row_violation(unit_box(1), HPolytope([[1.0]], [1.0]))


def test_row_violation_bounds_sampled(paper_cell2, aircraft_plant):
    Z = aircraft_plant.net_workspace
    M = max_row_violation(paper_cell2, Z)
    rng = np.random.default_rng(1)
    lo, hi = box_bounds(Z)
    pts = rng.uniform(lo, hi, size=(2000, 2))
    worst = (pts @ paper_cell2.A.T - paper_cell2.b).max()
    assert worst <= M + 1e-9


def test_chebyshev_center_inside():
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
    assert S.locate([1.0, 0.5], 1e-8) == 0
    assert S.locate([1.5, 0.5], 1e-8) == 1
    assert S.locate([3.0, 3.0], 1e-8) == -1
    assert list(S.locate([[1.0, 0.5], [1.5, 0.5], [3.0, 3.0]], 1e-8)) == [0, 1, -1]

    def first_smallest(polytopes, y, tol_feas=1e-8):
        best, best_r = -1, np.inf
        for j, P in enumerate(polytopes):
            r = P.residual(y)
            if r < best_r:
                best, best_r = j, r
        return best if best_r <= tol_feas else -1

    polys = [p.polytope for p in uav_cells.pieces]
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 24.0, size=(300, 2))     # the workspace is [3, 21]^2
    batch = uav_cells.stacked.locate(pts, 1e-8)
    for y, j in zip(pts, batch):
        assert uav_cells.stacked.locate(y, 1e-8) == first_smallest(polys, y) == j


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
        for cell in pipe.ensure_union().cells:
            assert row_violations(cell.polytope, pipe.workspace) == pytest.approx(
                lp_row_violations(cell.polytope, pipe.workspace), rel=1e-12, abs=1e-12)


def test_set_up_solves_lps_only_for_emptiness(monkeypatch, shipped_pipelines):
    # one feasibility LP per candidate pattern; big-M sizing solves none
    lp_calls = []
    candidates = []
    piece_for_pattern = relupwa.piece_for_pattern
    for module in (numkernel, polytope):
        monkeypatch.setattr(module, "solve_lp",
                            lambda *a, **k: lp_calls.append(1) or solve_lp(*a, **k))
    monkeypatch.setattr(relupwa, "piece_for_pattern",
                        lambda *a, **k: candidates.append(1) or piece_for_pattern(*a, **k))
    for pipe in shipped_pipelines:
        U = pipe.ensure_union()
        lp_calls.clear()
        candidates.clear()
        enumerate_cells(pipe.net, pipe.workspace)
        assert len(lp_calls) == len(candidates) > 0
        lp_calls.clear()
        compute_big_m(U, pipe.workspace)
        assert lp_calls == []
