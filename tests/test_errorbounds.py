import re
from pathlib import Path

import numpy as np
import pytest

from flatpwa import errorbounds, pipeline
from flatpwa.config import load_scenario
from flatpwa.errorbounds import (GridBudgetExceeded, GridSpec,
                                 grid_error_certificate, taylor_cell_bounds)
from flatpwa.miencoding import build_admissible_union
from flatpwa.pipeline import build_pipeline, run_certification
from flatpwa.plants import aircraft
from flatpwa.plants.aircraft import (AircraftParams, aircraft_lipschitz,
                                     aircraft_phi, aircraft_phi_grad)
from flatpwa.polytope import HPolytope, box_bounds
from flatpwa.relupwa import (ReluNetwork, enumerate_cells, forward, pwa_eval_batch,
                             pwa_lipschitz)

PARAMS = AircraftParams()
SCENARIOS = Path(__file__).parents[1] / "src" / "flatpwa" / "data" / "scenarios"


def aircraft_grid(delta=0.9e-3):
    return GridSpec.symmetric([delta, delta], [PARAMS.phi_bar, PARAMS.v_bar])


def aircraft_true(z1, v):
    return aircraft_phi(z1, v, PARAMS)


def test_rho_bar_formula():
    g = GridSpec.symmetric([0.2, 0.4], [1.0, 1.0])
    assert g.rho_bar == pytest.approx(np.hypot(0.1, 0.2), abs=1e-15)


def test_grid_axis_points_include_origin_and_respect_bounds():
    g = GridSpec.symmetric([0.3], [1.0])
    pts = g.axis_points(0)
    assert 0.0 in pts
    assert np.abs(pts).max() <= 1.0 + 1e-12
    assert pts.size == 7  # -0.9 ... 0.9

    # exactly representable endpoints are included
    g2 = GridSpec.symmetric([0.25], [1.0])
    assert g2.axis_points(0).size == 9
    assert g2.axis_points(0).max() == pytest.approx(1.0)


def test_aircraft_grid_size_and_granularity():
    g = aircraft_grid()
    assert g.rho_bar <= 0.68e-3
    assert g.rho_bar == pytest.approx(0.6364e-3, abs=1e-6)
    assert g.num_points > 8.6e6


def test_self_approximation_certificate(aircraft_net, aircraft_cells):
    # feeding the PWA its own values: zero grid error, padding-only bound
    g = GridSpec.symmetric([0.02, 0.2], [PARAMS.phi_bar, PARAMS.v_bar])

    def self_map(z1, v):
        pts = np.stack(np.broadcast_arrays(z1, v), axis=-1)
        out = pwa_eval_batch(aircraft_net, pts.reshape(-1, 2))[:, 0]
        return out.reshape(pts.shape[:-1])

    gamma_nn = pwa_lipschitz(aircraft_cells)
    cert = grid_error_certificate(self_map, aircraft_cells, aircraft_net, g,
                                  gamma_nn)
    assert cert.eps_tilde[0] == pytest.approx(0.0, abs=1e-12)
    assert cert.eps_bar[0] == pytest.approx(2 * gamma_nn * g.rho_bar, rel=1e-9)


def test_aircraft_full_certificate(aircraft_net, aircraft_cells):
    lips = aircraft_lipschitz(PARAMS)
    cert = grid_error_certificate(aircraft_true, aircraft_cells, aircraft_net,
                                  aircraft_grid(), lips["gamma_phi"])
    assert cert.grid_points > 8.6e6
    assert cert.eps_bar[0] == pytest.approx(0.1897, abs=0.02)
    assert cert.gamma_eps[0] == pytest.approx(36.71, abs=0.05)
    assert cert.wall_time_s < 120.0


def test_certificate_budget_guard(aircraft_net, aircraft_cells):
    g = GridSpec.symmetric([1e-5, 1e-5], [PARAMS.phi_bar, PARAMS.v_bar])
    with pytest.raises(GridBudgetExceeded):
        grid_error_certificate(aircraft_true, aircraft_cells, aircraft_net, g,
                               30.0)


def test_refinement_monotonicity(aircraft_net, aircraft_cells):
    lips = aircraft_lipschitz(PARAMS)
    coarse = GridSpec.symmetric([0.02, 0.1], [PARAMS.phi_bar, PARAMS.v_bar])
    fine = GridSpec.symmetric([0.01, 0.05], [PARAMS.phi_bar, PARAMS.v_bar])
    c1 = grid_error_certificate(aircraft_true, aircraft_cells, aircraft_net,
                                coarse, lips["gamma_phi"])
    c2 = grid_error_certificate(aircraft_true, aircraft_cells, aircraft_net,
                                fine, lips["gamma_phi"])
    # halving the steps keeps every old sample, so the measured maximum can
    # only grow; the certified bound grows at most by gamma_eps * new rho_bar
    assert c2.eps_tilde[0] >= c1.eps_tilde[0] - 1e-12
    assert c2.eps_bar[0] <= c1.eps_bar[0] + c1.gamma_eps[0] * \
        (c1.rho_bar - c2.rho_bar) + 1e-12
    assert c2.eps_bar[0] <= c1.eps_bar[0] + 1e-12  # tighter here in practice


def test_certificate_argmax_owns_its_data(aircraft_net, aircraft_cells):
    # a view into the grid chunk would keep the whole chunk alive with the
    # certificate
    g = GridSpec.symmetric([0.02, 0.1], [PARAMS.phi_bar, PARAMS.v_bar])
    cert = grid_error_certificate(aircraft_true, aircraft_cells, aircraft_net,
                                  g, 30.0, chunk_rows=100)
    assert cert.argmax.base is None and cert.argmax.shape == (2,)
    nn = pwa_eval_batch(aircraft_net, cert.argmax[None, :])
    err = abs(aircraft_true(*cert.argmax) - nn[0, 0])
    assert err == pytest.approx(cert.eps_tilde[0], rel=1e-12)


def _random_problem(dim, seed, n_out=2, n1=6):
    """A seeded one-hidden-layer net with ``n_out`` outputs, its cells, a
    smooth true map and a grid whose box bounds are not multiples of the
    steps."""
    rng = np.random.default_rng(seed)
    net = ReluNetwork(W1=rng.standard_normal((n1, dim)),
                      b1=0.5 * rng.standard_normal(n1),
                      W2=rng.standard_normal((n_out, n1)),
                      b2=rng.standard_normal(n_out))
    lower = -1.0 + 0.1 * rng.random(dim)
    upper = 1.0 - 0.1 * rng.random(dim)
    grid = GridSpec([0.013, 0.07, 0.15][:dim], lower, upper)
    cells = enumerate_cells(net, HPolytope.box(lower, upper))
    A = rng.standard_normal((dim, n_out))

    def true_map(*x):
        out = np.sin(sum(xi[..., None] * a for xi, a in zip(x, A))) + x[0][..., None] ** 2
        return out[..., 0] if n_out == 1 else out

    return net, cells, grid, true_map


@pytest.mark.parametrize("n_out", [1, 2])
@pytest.mark.parametrize("slabs_per_chunk", ["one", "many"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certificate_matches_brute_force_forward(dim, slabs_per_chunk, n_out):
    # the per-axis first layer against the plain forward pass over the same
    # points: a chunk of ``chunk_rows`` below the slab holds one slab, one of
    # several slabs holds three or more, and the last of those holds fewer,
    # so it reads a shorter prefix of the shared buffers than those before it
    net, cells, grid, true_map = _random_problem(dim, seed=10 + dim, n_out=n_out)
    axes = [grid.axis_points(i) for i in range(dim)]
    slab = int(np.prod([a.size for a in axes[1:]]))
    if slabs_per_chunk == "one":
        chunk_rows = max(1, slab // 2)
    else:
        per_chunk = next(k for k in range(3, axes[0].size) if axes[0].size % k)
        chunk_rows = per_chunk * slab + 1
    cert = grid_error_certificate(true_map, cells, net, grid, 1.0,
                                  chunk_rows=chunk_rows)

    pts = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    err = np.abs(true_map(*pts.T).reshape(len(pts), -1) - forward(net, pts))
    assert cert.grid_points == len(pts) > 100
    assert cert.eps_tilde.shape == (n_out,)
    np.testing.assert_allclose(cert.eps_tilde, err.max(axis=0), rtol=1e-12, atol=0)
    np.testing.assert_array_equal(cert.argmax, pts[np.argmax(err.max(axis=1))])


def test_aircraft_certificate_maps_each_z1_once(monkeypatch):
    # the true map runs on the grid's open mesh, so lift's cube and the
    # cosine see each z1 of the grid once, not once per grid point
    pipe = build_pipeline(load_scenario(SCENARIOS / "aircraft_mpc.yaml"))
    z1_values = []
    phi = aircraft.aircraft_phi

    def counted_phi(z1, v, params):
        z1_values.append(np.size(z1))
        return phi(z1, v, params)

    monkeypatch.setattr(aircraft, "aircraft_phi", counted_phi)
    cert = run_certification(pipe)
    grid = GridSpec(pipe.cfg.grid_deltas, *box_bounds(pipe.workspace))
    assert cert.grid_points == grid.num_points
    assert sum(z1_values) == grid.shape[0] < grid.num_points


@pytest.mark.parametrize("scenario", ["aircraft_mpc", "pmsm_case1", "uav_tracking"])
def test_true_maps_agree_on_the_open_mesh_and_on_points(scenario):
    # each plant's certified map is coordinate-wise: on the open mesh it
    # gives the bits it gives on the same points as an (N, d) batch
    pipe = build_pipeline(load_scenario(SCENARIOS / f"{scenario}.yaml"))
    phi, _, (lo, hi), _, _ = pipeline._coordinate_problem(pipe)
    mesh = errorbounds._grid_mesh(GridSpec((hi - lo) / 13.0, lo, hi))
    pts = np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, lo.size)
    on_mesh, on_points = np.asarray(phi(*mesh)), np.asarray(phi(*pts.T))
    assert on_mesh.shape[:lo.size] == tuple(a.size for a in mesh)
    assert on_mesh.size == on_points.size > 100
    assert on_mesh.tobytes() == on_points.tobytes()


@pytest.mark.parametrize("shape", ["transposed", "three-outputs"])
def test_certificate_rejects_a_misshapen_true_map(shape):
    # an (n_out, N) map once fell through to reshape(N, n_out), scrambling it;
    # on the mesh, the transposed result is (n_out,) + the reversed mesh shape
    net, cells, grid, true_map = _random_problem(2, seed=12)
    n, mesh = grid.num_points, grid.shape
    if shape == "transposed":
        phi, expect = (lambda *x: true_map(*x).T), (2, *mesh[::-1])
    else:
        phi, expect = (lambda *x: np.ones(mesh + (3,))), (*mesh, 3)
    with pytest.raises(ValueError, match=re.escape(f"shape {expect}")):
        grid_error_certificate(phi, cells, net, grid, 1.0, chunk_rows=n)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md, grid edges are not covered by rho_bar: the samples "
    "are the multiples of each step inside the box, so the strips between a "
    "box bound and the outermost sample lie farther out than rho_bar"))
def test_aircraft_grid_covering_radius_within_rho_bar():
    g = aircraft_grid()
    radii = []
    for i in range(g.deltas.size):
        a = g.axis_points(i)
        radii.append(max(a[0] - g.lower[i], g.upper[i] - a[-1],
                         np.diff(a).max() / 2.0))
    assert np.linalg.norm(radii) <= g.rho_bar


def test_taylor_cell_bounds_affine_exact():
    # affine true map approximated by itself: both terms vanish
    net = ReluNetwork(W1=[[1.0, 0.0]], b1=[5.0], W2=[[2.0]], b2=[-10.0])
    d = enumerate_cells(net, HPolytope.box([-1, -1], [1, 1]))
    assert len(d) == 1

    def phi(x):
        return 2.0 * (x[0] + 5.0) - 10.0

    def grad(x):
        return np.array([2.0, 0.0])

    (bound,) = taylor_cell_bounds(phi, grad, d.pieces, C_zeta=0.0)
    assert bound.eps_taylor == 0.0
    assert bound.eps_vertices == pytest.approx(0.0, abs=1e-9)


def test_taylor_table_matches_published_values(aircraft_cells):
    union = build_admissible_union(aircraft_cells, u_max=4.0, eps=0.1897)
    lips = aircraft_lipschitz(PARAMS)

    def phi(zeta):
        return aircraft_phi(zeta[0], zeta[1], PARAMS)

    def grad(zeta):
        return np.array(aircraft_phi_grad(zeta[0], zeta[1], PARAMS))

    table = taylor_cell_bounds(phi, grad, union.pieces, lips["C_zeta"])
    rows = sorted(table, key=lambda t: t.center[0])
    expect = [(3.6495, 983.5, 0.1365), (4.9177, 1325.2, 0.2006),
              (3.6457, 982.5, 0.1379)]
    for row, (r, eps_t, eps_h) in zip(rows, expect):
        assert row.radius == pytest.approx(r, abs=1e-2)
        assert row.eps_taylor == pytest.approx(eps_t, abs=1.0)
        assert row.eps_vertices == pytest.approx(eps_h, abs=1e-2)
        assert row.total == pytest.approx(row.eps_taylor + row.eps_vertices)


def test_taylor_bounds_dominate_true_error(aircraft_net, aircraft_cells):
    union = build_admissible_union(aircraft_cells, u_max=4.0, eps=0.1897)
    lips = aircraft_lipschitz(PARAMS)

    def phi(zeta):
        return aircraft_phi(zeta[0], zeta[1], PARAMS)

    def grad(zeta):
        return np.array(aircraft_phi_grad(zeta[0], zeta[1], PARAMS))

    table = taylor_cell_bounds(phi, grad, union.pieces, lips["C_zeta"])
    from flatpwa.polytope import vertices
    for cell, bound in zip(union.pieces, table):
        V = vertices(cell.polytope)
        pts = np.vstack([V.points, V.points.mean(axis=0)])
        true_err = np.abs(aircraft_true(*pts.T)
                          - (pts @ cell.F[0] + cell.f[0])).max()
        assert true_err <= bound.total + 1e-9
