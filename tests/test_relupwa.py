import json
import time

import numpy as np
import pytest

from flatpwa.plants.aircraft import aircraft_phi
from flatpwa.polytope import box_bounds
from flatpwa.relupwa import (ReluNetwork, enumerate_cells, forward, pwa_eval_batch,
                             pwa_lipschitz)


def test_forward_zero_weights_returns_bias():
    net = ReluNetwork(W1=np.zeros((4, 2)), b1=np.zeros(4),
                      W2=np.zeros((1, 4)), b2=np.array([3.25]))
    rng = np.random.default_rng(0)
    for x in rng.normal(size=(10, 2)):
        assert forward(net, x)[0] == pytest.approx(3.25)


def test_forward_single_neuron_boundary_point():
    # neuron w = (2, 0.5), b = -1: the input (0.5, 0) sits on its kink line
    net = ReluNetwork(W1=[[2.0, 0.5]], b1=[-1.0], W2=[[1.0]], b2=[0.0])
    assert forward(net, [0.5, 0.0])[0] == pytest.approx(0.0, abs=1e-12)
    assert forward(net, [1.0, 0.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert forward(net, [0.0, 0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_forward_aircraft_origin(aircraft_net):
    val = forward(aircraft_net, [0.0, 0.0])[0]
    assert val == pytest.approx(0.2379, abs=1e-3)
    # cross-oracle: the true linearizing map at the origin
    assert val == pytest.approx(aircraft_phi(0.0, 0.0), abs=1e-3)


def test_forward_shape_mismatch(aircraft_net):
    with pytest.raises(ValueError):
        forward(aircraft_net, [0.0, 0.0, 0.0])


def test_piece_all_inactive(aircraft_net, aircraft_plant):
    big = aircraft_plant.net_workspace
    from flatpwa.relupwa import affine_maps_for_pattern
    F, f = affine_maps_for_pattern(aircraft_net, -np.ones(3))
    assert np.allclose(F, 0.0)
    assert np.allclose(f, aircraft_net.b2)


def test_piece_all_active_maps(aircraft_net):
    from flatpwa.relupwa import affine_maps_for_pattern
    F, f = affine_maps_for_pattern(aircraft_net, np.ones(3))
    assert np.allclose(F, aircraft_net.W2 @ aircraft_net.W1)
    assert np.allclose(f, aircraft_net.W2 @ aircraft_net.b1 + aircraft_net.b2)


def test_piece_matches_forward_at_interior_sample(aircraft_net, aircraft_cells,
                                                  chebyshev_center):
    for piece in aircraft_cells.pieces:
        x, _ = chebyshev_center(piece.polytope)
        assert np.abs(piece.F @ x + piece.f - forward(aircraft_net, x)).max() <= 1e-9


def test_enumerate_counts_and_runtimes(aircraft_net, aircraft_plant, uav_net,
                                       uav_plant, pmsm_net, pmsm_plant):
    for net, plant, expect in ((aircraft_net, aircraft_plant, 3),
                               (uav_net, uav_plant, 14),
                               (pmsm_net, pmsm_plant, 10)):
        t0 = time.perf_counter()
        d = enumerate_cells(net, plant.net_workspace)
        dt = time.perf_counter() - t0
        assert len(d) == expect
        assert dt < 1.0


def test_enumerate_width_guard():
    net = ReluNetwork(W1=np.ones((26, 1)), b1=np.zeros(26),
                      W2=np.ones((1, 26)), b2=[0.0])
    from flatpwa.polytope import HPolytope
    with pytest.raises(ValueError):
        enumerate_cells(net, HPolytope.box([-1.0], [1.0]))


def test_pwa_eval_boundary_continuity(aircraft_net, aircraft_cells):
    # points on the shared boundary of two pieces: both candidate affine maps
    # agree (the network is continuous)
    W1, b1 = aircraft_net.W1, aircraft_net.b1
    # neuron 2's kink line crosses the workspace; solve its z for a given v
    for v in (-3.0, 0.0, 3.0):
        z = -(W1[1, 1] * v + b1[1]) / W1[1, 0]
        x = np.array([z, v])
        vals = [p.F @ x + p.f for p in aircraft_cells.pieces
                if p.polytope.residual(x) <= 1e-7]
        assert len(vals) >= 2
        assert np.abs(np.diff(np.array(vals), axis=0)).max() <= 1e-7


@pytest.mark.parametrize("fixture", ["aircraft", "uav", "pmsm"])
def test_pwa_exactness_random(fixture, request, piece_values):
    # each piece's F, f on the points its cell holds reproduce the network
    net = request.getfixturevalue(f"{fixture}_net")
    plant = request.getfixturevalue(f"{fixture}_plant")
    cells = request.getfixturevalue(f"{fixture}_cells")
    rng = np.random.default_rng(42)
    lo, hi = box_bounds(plant.net_workspace)
    pts = rng.uniform(lo, hi, size=(10_000, lo.size))
    kept, vals = piece_values(cells, pts)
    assert len(kept) >= 9_990
    assert np.abs(vals - forward(net, kept)).max() <= 1e-7
    # the grid certificate's mask form is the forward pass
    assert np.abs(pwa_eval_batch(net, pts) - forward(net, pts)).max() <= 1e-7


def test_pattern_consistency(aircraft_net, aircraft_cells, chebyshev_center):
    rng = np.random.default_rng(9)
    for piece in aircraft_cells.pieces:
        x, r = chebyshev_center(piece.polytope)
        for _ in range(20):
            p = x + rng.uniform(-0.5, 0.5, size=2) * r
            if piece.polytope.residual(p) > -1e-9:
                continue
            pre = aircraft_net.W1 @ p + aircraft_net.b1
            for k in range(aircraft_net.n1):
                if abs(pre[k]) > 1e-9:
                    assert np.sign(pre[k]) == piece.alpha[k]


def test_pieces_interior_disjoint(aircraft_cells, uav_cells, chebyshev_center):
    for cells in (aircraft_cells, uav_cells):
        for i, piece in enumerate(cells.pieces):
            x, r = chebyshev_center(piece.polytope)
            if r <= 1e-9:
                continue
            for j, other in enumerate(cells.pieces):
                if i != j:
                    assert other.polytope.residual(x) > 1e-9


def test_workspace_cover_grid(aircraft_cells, aircraft_plant):
    params = aircraft_plant.extras["params"]
    zs = np.linspace(-params.phi_bar, params.phi_bar, 50)
    vs = np.linspace(-params.v_bar, params.v_bar, 50)
    for z in zs:
        for v in vs:
            x = np.array([z, v])
            assert min(p.polytope.residual(x)
                       for p in aircraft_cells.pieces) <= 1e-8


def test_piece_count_bounds(aircraft_cells, uav_cells, pmsm_cells,
                            aircraft_net, uav_net, pmsm_net):
    assert len(aircraft_cells) <= 2 ** aircraft_net.n1
    assert len(uav_cells) <= 2 ** uav_net.n1
    assert len(pmsm_cells) <= 2 ** pmsm_net.n1
    assert (len(aircraft_cells), len(uav_cells), len(pmsm_cells)) == (3, 14, 10)


def test_pwa_lipschitz_zero_network():
    net = ReluNetwork(W1=np.zeros((2, 2)), b1=np.ones(2),
                      W2=np.zeros((1, 2)), b2=[0.0])
    from flatpwa.polytope import HPolytope
    d = enumerate_cells(net, HPolytope.box([-1, -1], [1, 1]))
    assert pwa_lipschitz(d) == 0.0


def test_pwa_lipschitz_fully_linear():
    net = ReluNetwork(W1=[[1.0, 2.0]], b1=[10.0], W2=[[3.0]], b2=[0.0])
    from flatpwa.polytope import HPolytope
    d = enumerate_cells(net, HPolytope.box([-1, -1], [1, 1]))
    assert pwa_lipschitz(d) == pytest.approx(
        np.linalg.norm(net.W2 @ net.W1, 2), abs=1e-12)


def test_pwa_lipschitz_aircraft(aircraft_cells):
    assert pwa_lipschitz(aircraft_cells) == pytest.approx(7.29, abs=0.01)


def test_weights_file_roundtrip(tmp_path, aircraft_net):
    path = tmp_path / "net.json"
    aircraft_net.save(path)
    loaded = ReluNetwork.load(path)
    assert np.allclose(loaded.W1, aircraft_net.W1)
    assert np.allclose(loaded.b2, aircraft_net.b2)
    assert loaded.unit_scale == aircraft_net.unit_scale
    raw = json.loads(path.read_text())
    assert raw["n0"] == 2 and raw["n1"] == 3 and raw["n2"] == 1


def test_weights_file_shape_mismatch(tmp_path, aircraft_net):
    raw = aircraft_net.to_json()
    raw["n1"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        ReluNetwork.load(path)
