import itertools

import numpy as np
import pytest

from flatpwa.miencoding import (BigMData, build_admissible_union, compute_big_m,
                                encode_horizon, encode_point, lift_rows,
                                step_rows, validate_big_m_override)
from flatpwa.polytope import HPolytope
from flatpwa.relupwa import ReluNetwork, enumerate_cells
from flatpwa.simulate import rk4_discretize


def identity_pwa():
    # one always-active neuron realizing F = I, f = 0 on [-1, 1]
    net = ReluNetwork(W1=[[1.0]], b1=[10.0], W2=[[1.0]], b2=[-10.0])
    return net, enumerate_cells(net, HPolytope.box([-1.0], [1.0]))


def test_union_identity_single_box():
    _, d = identity_pwa()
    U = build_admissible_union(d, u_max=1.0, eps=0.0)
    assert len(U) == 1
    cell = U.pieces[0]
    assert cell.polytope.contains([0.5])
    assert not cell.polytope.contains([1.5])


def test_union_aircraft_three_members(aircraft_union):
    assert len(aircraft_union) == 3


def test_union_vacuous_tightening_rejected():
    _, d = identity_pwa()
    with pytest.raises(ValueError):
        build_admissible_union(d, u_max=1.0, eps=1.5)


def test_union_asymmetric_bounds():
    _, d = identity_pwa()
    U = build_admissible_union(d, u_max=0.9, eps=0.1, u_min=0.2)
    cell = U.pieces[0]
    assert cell.polytope.contains([0.5])
    assert not cell.polytope.contains([0.25])   # below the tightened floor
    assert not cell.polytope.contains([0.85])


def test_big_m_zero_when_cell_covers_region():
    Z = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
    big = HPolytope.box([-5.0, -5.0], [5.0, 5.0])
    assert np.max(np.maximum(
        compute_big_m_rows(big, Z), 0.0)) == pytest.approx(0.0, abs=1e-8)


def compute_big_m_rows(P, Z):
    from flatpwa.polytope import row_violations
    return row_violations(P, Z)


def test_big_m_aircraft_own_cell_matches_appendix(aircraft_cells, aircraft_plant):
    # rebuilding the published cell (output bound 4, eps 0.1897) reproduces
    # the printed worst-case constant
    U4 = build_admissible_union(aircraft_cells, u_max=4.0, eps=0.1897)
    data = compute_big_m(U4, aircraft_plant.net_workspace)
    # the fully-active cell is the one whose pattern is (1, 1, 1)
    idx = [i for i, c in enumerate(U4.pieces)
           if tuple(c.alpha) == (1, 1, 1)][0]
    assert data.per_cell[idx] == pytest.approx(4.3247, abs=1e-2)


def test_big_m_override_accepts_5000(aircraft_union, aircraft_plant):
    data = validate_big_m_override(aircraft_union, aircraft_plant.net_workspace,
                                   5000.0)
    assert np.all(data.per_cell == 5000.0)


def test_big_m_override_rejects_small(aircraft_union, aircraft_plant):
    with pytest.raises(ValueError):
        validate_big_m_override(aircraft_union, aircraft_plant.net_workspace, 1.0)


def test_step_rows_single_cell_hard_rows():
    _, d = identity_pwa()
    U = build_admissible_union(d, u_max=1.0, eps=0.0)
    bigm = BigMData.uniform(U, 100.0)
    G, h = step_rows(U, bigm, None, 1)
    # no binary, so no cardinality row in the point encoding either
    E, d_card = encode_point(U, [], bigm, None, 0, 1)[2:4]
    assert E.shape[0] == 0 and d_card.size == 0
    # rows are emitted without any big-M column
    assert G.shape[1] == 1
    assert G.tobytes() == lift_rows(U, None, 1).tobytes()


def test_step_rows_cardinality_semantics(aircraft_union, aircraft_bigm):
    n_cells = len(aircraft_union)
    total = 2 + n_cells
    G, h = step_rows(aircraft_union, aircraft_bigm, None, 2)
    assert G.shape == (h.size, total)
    # the point encoding's cardinality row over the same binaries
    E, d_card = encode_point(aircraft_union, np.zeros(1), aircraft_bigm,
                             np.eye(2), 1, 1)[2:4]
    assert d_card[0] == n_cells - 1
    assert np.allclose(E[0, 1:], 1.0)
    # beta = (1, 1, 0): only the third cell's rows are active
    x = np.zeros(total)
    x[:2] = [0.0, 0.0]
    x[2:] = [1.0, 1.0, 0.0]
    resid = G @ x - h
    rows_per_cell = [c.polytope.num_rows for c in aircraft_union.pieces]
    ofs = np.cumsum([0] + rows_per_cell)
    relaxed = resid[:ofs[2]]
    hard = resid[ofs[2]:ofs[3]]
    assert np.all(relaxed <= 0.0)          # relaxed by the big-M column
    assert hard.max() == pytest.approx(
        aircraft_union.pieces[2].polytope.residual(np.zeros(2)), abs=1e-12)


def test_encode_point_forces_unique_cell(aircraft_union, aircraft_bigm,
                                         aircraft_plant, chebyshev_center):
    # a state whose (z1, v) slice is interior to exactly one member: the only
    # feasible integral assignments put beta = 0 on that member
    target = 0
    center, _ = chebyshev_center(aircraft_union.pieces[target].polytope)
    z = np.array([center[0], 0.0])
    v = np.array([center[1]])
    G, h, E, d, n_bin, groups = encode_point(
        aircraft_union, z, aircraft_bigm, aircraft_plant.input_map, 2, 1)
    feasible = []
    for bits in itertools.product([0.0, 1.0], repeat=n_bin):
        if sum(bits) != n_bin - 1:
            continue
        x = np.concatenate([v, bits])
        if np.max(G @ x - h) <= 1e-9:
            feasible.append(bits)
    assert feasible == [tuple(1.0 if j != target else 0.0
                              for j in range(n_bin))]


def aircraft_spec_model(aircraft_union, aircraft_bigm, plant, N_p, z0):
    A_d, B_d = rk4_discretize(plant.A, plant.B, 0.1)
    return encode_horizon(aircraft_union, N_p, A_d, B_d,
                          np.array([[20.0, 1.0], [1.0, 0.5]]), [[0.005]],
                          z0, aircraft_bigm, state_rows=plant.state_rows,
                          input_map=plant.input_map)


def test_encode_horizon_counts(aircraft_union, aircraft_bigm, aircraft_plant):
    m = aircraft_spec_model(aircraft_union, aircraft_bigm, aircraft_plant, 5,
                            np.array([0.25, 0.0]))
    assert m.n_bin == 15
    assert len(m.binary_groups) == 5
    card_rows = [r for r in range(m.E.shape[0])
                 if np.abs(m.E[r, m.n_cont:]).sum() > 0]
    assert len(card_rows) == 5
    assert m.meta == {"n_z": 2, "m": 1, "N_p": 5, "num_cells": 3}


def test_encode_horizon_single_cell_plain_qp():
    net, d = identity_pwa()
    U = build_admissible_union(d, u_max=1.0, eps=0.0)
    bigm = BigMData.uniform(U, 10.0)
    m = encode_horizon(U, 1, [[1.0]], [[1.0]], [[1.0]], [[1.0]], [0.0], bigm,
                       input_map=np.array([[0.0, 1.0]]))
    assert m.n_bin == 0 and m.binary_groups == []


def test_encode_horizon_tracking_shifts_cost():
    net, d = identity_pwa()
    U = build_admissible_union(d, u_max=1.0, eps=0.0)
    bigm = BigMData.uniform(U, 10.0)
    zr = np.array([[0.3]])
    vr = np.array([[0.1]])
    m = encode_horizon(U, 1, [[1.0]], [[1.0]], [[2.0]], [[4.0]], [0.0], bigm,
                       input_map=np.array([[0.0, 1.0]]), z_ref=zr, v_ref=vr)
    # linear terms -2 Q z_ref and -2 R v_ref on (z_0, v_0)
    assert m.g[0] == pytest.approx(-2 * 2.0 * 0.3)
    assert m.g[2] == pytest.approx(-2 * 4.0 * 0.1)
    assert m.c0 == pytest.approx(2.0 * 0.09 + 4.0 * 0.01)


def test_union_membership_soundness(aircraft_union, aircraft_bigm,
                                    aircraft_plant):
    # integral beta + feasible rows => the point is inside exactly one member
    rng = np.random.default_rng(2)
    G, h, E, d, n_bin, groups = encode_point(
        aircraft_union, np.array([0.0, 0.0]), aircraft_bigm,
        aircraft_plant.input_map, 2, 1)
    hits = 0
    for _ in range(300):
        v = rng.uniform(-5.0, 5.0, size=1)
        for j in range(n_bin):
            beta = np.ones(n_bin)
            beta[j] = 0.0
            x = np.concatenate([v, beta])
            if np.max(G @ x - h) <= 1e-9:
                hits += 1
                members = [k for k, c in enumerate(aircraft_union.pieces)
                           if c.polytope.residual(
                               np.array([0.0, v[0]])) <= 1e-8]
                assert members == [j]
    assert hits > 50


def test_relaxation_containment(aircraft_union, aircraft_bigm, aircraft_plant):
    # any integral-feasible point stays feasible when the binaries relax
    m = aircraft_spec_model(aircraft_union, aircraft_bigm, aircraft_plant, 2,
                            np.array([0.1, 0.0]))
    from flatpwa.miqpsolver import solve_by_cell_enumeration
    res = solve_by_cell_enumeration(m)
    x = np.concatenate([res.x, res.beta])
    assert np.max(m.G @ x - m.h) <= 1e-8
    relaxed = x.copy()
    relaxed[m.n_cont:] = np.clip(relaxed[m.n_cont:], 0.0, 1.0)
    assert np.max(m.G @ relaxed - m.h) <= 1e-8
