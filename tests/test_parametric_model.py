"""The parametric MIQP: one structure per controller, one model per sample.

The structure is assembled by blocks and each sample only fills in z0 and
the references. These tests hold it, and the single-instant big-M rows of
``encode_point``, to a row-by-row reference encoder, bit for bit, and hold
the node assembly of branch and bound to plain column selection.
"""

from pathlib import Path

import numpy as np
import pytest

import flatpwa
from flatpwa.config import load_scenario
from flatpwa.controllers import mpc_structure
from flatpwa.miencoding import encode_horizon, encode_point
from flatpwa.miqpsolver import _node_problem
from flatpwa.numkernel import QpProblem
from flatpwa.pipeline import build_controller, build_pipeline
from flatpwa.tolerances import DEFAULT

SCENARIOS = Path(flatpwa.__file__).parent / "data" / "scenarios"


# --- reference: the row-by-row encoder the structures replaced -------------

def _ref_lift(cell, input_map, zeta_dim):
    S = np.eye(zeta_dim) if input_map is None else np.asarray(input_map, dtype=float)
    return cell.polytope.A @ S, cell.polytope.b.copy()


def _ref_step(U, big_m, zeta_cols, beta_cols, total_vars, input_map):
    zeta_cols = np.asarray(zeta_cols, dtype=int)
    rows, rhs = [], []
    for j, cell in enumerate(U.pieces):
        A_z, b_z = _ref_lift(cell, input_map, zeta_cols.size)
        for r in range(A_z.shape[0]):
            row = np.zeros(total_vars)
            row[zeta_cols] = A_z[r]
            if len(U) > 1:
                row[beta_cols[j]] = -big_m.per_row[len(rows)]
            rows.append(row)
            rhs.append(b_z[r])
    card_row = None
    if len(U) > 1:
        card_row = np.zeros(total_vars)
        card_row[np.asarray(beta_cols, dtype=int)] = 1.0
    return np.array(rows), np.array(rhs), card_row, float(len(U) - 1)


def _ref_horizon(U, N_p, A_d, B_d, Q, R, z0, big_m, state_rows=None,
                 input_map=None, z_ref=None, v_ref=None, input_rows=None,
                 terminal_weight=None):
    n_z, m = B_d.shape
    n_states = n_z * (N_p + 1)
    n_cont = n_states + m * N_p
    use_bin = U is not None and len(U) > 1
    n_bin = len(U) * N_p if use_bin else 0
    n = n_cont + n_bin

    def z_cols(i):
        return np.arange(i * n_z, (i + 1) * n_z)

    def v_cols(i):
        return np.arange(n_states + i * m, n_states + (i + 1) * m)

    H = np.zeros((n, n))
    g = np.zeros(n)
    c0 = 0.0
    for i in range(N_p):
        zr = np.zeros(n_z) if z_ref is None else z_ref[i]
        vr = np.zeros(m) if v_ref is None else v_ref[i]
        zc, vc = z_cols(i), v_cols(i)
        H[np.ix_(zc, zc)] += 2.0 * Q
        H[np.ix_(vc, vc)] += 2.0 * R
        g[zc] += -2.0 * Q @ zr
        g[vc] += -2.0 * R @ vr
        c0 += float(zr @ Q @ zr + vr @ R @ vr)
    if terminal_weight is not None:
        P = terminal_weight
        zc = z_cols(N_p)
        zr = np.zeros(n_z) if z_ref is None else z_ref[min(N_p, z_ref.shape[0] - 1)]
        H[np.ix_(zc, zc)] += 2.0 * P
        g[zc] += -2.0 * P @ zr
        c0 += float(zr @ P @ zr)
    row = np.zeros((n_z, n))
    row[:, z_cols(0)] = np.eye(n_z)
    eq_rows, eq_rhs = [row], [z0]
    for i in range(N_p):
        row = np.zeros((n_z, n))
        row[:, z_cols(i + 1)] = np.eye(n_z)
        row[:, z_cols(i)] = -A_d
        row[:, v_cols(i)] = -B_d
        eq_rows.append(row)
        eq_rhs.append(np.zeros(n_z))
    G_blocks, h_blocks = [], []
    for i in range(N_p):
        if U is not None:
            bcols = [n_cont + i * len(U) + j for j in range(len(U))] if use_bin else []
            Gs, hs, card, card_rhs = _ref_step(
                U, big_m, np.concatenate([z_cols(i), v_cols(i)]), bcols, n, input_map)
            G_blocks.append(Gs)
            h_blocks.append(hs)
            if card is not None:
                eq_rows.append(card[None, :])
                eq_rhs.append(np.array([card_rhs]))
        for rows, cols in ((state_rows, z_cols(i)), (input_rows, v_cols(i))):
            if rows is not None:
                block = np.zeros((rows.num_rows, n))
                block[:, cols] = rows.A
                G_blocks.append(block)
                h_blocks.append(rows.b)
    if use_bin:
        box = np.zeros((2 * n_bin, n))
        box_rhs = np.empty(2 * n_bin)
        for k in range(n_bin):
            box[2 * k, n_cont + k] = 1.0
            box_rhs[2 * k] = 1.0
            box[2 * k + 1, n_cont + k] = -1.0
            box_rhs[2 * k + 1] = 0.0
        G_blocks.append(box)
        h_blocks.append(box_rhs)
    return dict(H=H, g=g, c0=c0, G=np.vstack(G_blocks), h=np.concatenate(h_blocks),
                E=np.vstack(eq_rows), d=np.concatenate(eq_rhs))


def _ref_point(U, z, big_m, input_map, n_z, m):
    use_bin = len(U) > 1
    n_bin = len(U) if use_bin else 0
    n = m + n_bin
    rows, rhs = [], []
    for j, cell in enumerate(U.pieces):
        A_z, b_z = _ref_lift(cell, input_map, n_z + m)
        const = A_z[:, :n_z] @ z
        for r in range(A_z.shape[0]):
            row = np.zeros(n)
            row[:m] = A_z[r, n_z:]
            if use_bin:
                row[m + j] = -big_m.per_row[len(rows)]
            rows.append(row)
            rhs.append(b_z[r] - const[r])
    for k in range(n_bin):
        for sign, bound in ((1.0, 1.0), (-1.0, 0.0)):
            row = np.zeros(n)
            row[m + k] = sign
            rows.append(row)
            rhs.append(bound)
    return np.array(rows), np.array(rhs)


def _ref_node_problem(model, fixed):
    """Plain column selection: copy G, E and H down to the kept columns."""
    keep = [i for i in range(model.n) if i < model.n_cont or i not in fixed]
    fixed_cols = sorted(fixed)
    vals = np.array([fixed[c] for c in fixed_cols])
    G = model.G[:, keep]
    h = model.h.copy()
    if fixed_cols:
        h = h - model.G[:, fixed_cols] @ vals
    zero = np.abs(G).max(axis=1) == 0.0
    if np.any(h[zero] < -DEFAULT.feas):
        return None
    h[zero] = np.maximum(h[zero], 0.0)
    E = model.E[:, keep]
    d = model.d.copy()
    if fixed_cols:
        d = d - model.E[:, fixed_cols] @ vals
    ezero = np.abs(E).max(axis=1) == 0.0
    if np.any(np.abs(d[ezero]) > DEFAULT.feas):
        return None
    E, d = E[~ezero], d[~ezero]
    prob = QpProblem(H=model.H[np.ix_(keep, keep)], g=model.g[keep], G=G, h=h,
                     E=E if E.shape[0] else None, d=d if E.shape[0] else None,
                     c0=model.c0)
    return prob


# --- fixtures ---------------------------------------------------------------

@pytest.fixture(scope="module", params=["aircraft_mpc", "uav_tracking", "pmsm_case1"])
def mpc_setup(request):
    pipe = build_pipeline(load_scenario(SCENARIOS / f"{request.param}.yaml"))
    _, _, info = build_controller(pipe)
    return pipe, info["mpc_spec"]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _random_refs(rng, spec, n_z, m):
    return (rng.normal(size=n_z), rng.normal(size=(spec.N_p, n_z)),
            rng.normal(size=(spec.N_p, m)))


def test_sample_model_matches_row_by_row_encoder(mpc_setup):
    pipe, spec = mpc_setup
    U, big_m = pipe.ensure_union(), pipe.ensure_big_m()
    n_z, m = spec.B_d.shape
    rng = np.random.default_rng(31)
    P = np.diag(rng.uniform(0.5, 2.0, size=n_z))
    cases = [(U, big_m, None), (U, big_m, P), (None, None, None)]
    for union, bm, terminal in cases:
        rows = dict(state_rows=spec.state_rows, input_rows=spec.input_rows,
                    input_map=None if union is None else spec.input_map,
                    terminal_weight=terminal)
        structure = mpc_structure(spec, union, bm) if terminal is None else None
        for _ in range(3):
            z0, z_ref, v_ref = _random_refs(rng, spec, n_z, m)
            if structure is not None:
                model = structure.instantiate(z0, z_ref, v_ref)
            else:
                model = encode_horizon(union, spec.N_p, spec.A_d, spec.B_d, spec.Q,
                                       spec.R, z0, bm, z_ref=z_ref, v_ref=v_ref, **rows)
            ref = _ref_horizon(union, spec.N_p, spec.A_d, spec.B_d, spec.Q, spec.R,
                               z0, bm, z_ref=z_ref, v_ref=v_ref, **rows)
            for key in ("H", "g", "G", "h", "E", "d"):
                assert _bits(getattr(model, key)) == _bits(ref[key]), key
            assert model.c0 == ref["c0"]


def test_point_rows_match_row_by_row_encoder(aircraft_union, aircraft_bigm,
                                             aircraft_plant):
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.uniform([-0.3, -1.0], [0.3, 1.0])
        G, h, *_ = encode_point(aircraft_union, z, aircraft_bigm,
                                aircraft_plant.input_map, 2, 1)
        G_ref, h_ref = _ref_point(aircraft_union, z, aircraft_bigm,
                                  aircraft_plant.input_map, 2, 1)
        assert _bits(G) == _bits(G_ref) and _bits(h) == _bits(h_ref)


def test_samples_share_structure_but_not_their_data(mpc_setup):
    pipe, spec = mpc_setup
    structure = mpc_structure(spec, pipe.ensure_union(), pipe.ensure_big_m())
    n_z, m = spec.B_d.shape
    rng = np.random.default_rng(2)
    first = structure.instantiate(*_random_refs(rng, spec, n_z, m))
    kept = {key: getattr(first, key).copy() for key in ("g", "d", "h")}
    c0 = first.c0
    second = structure.instantiate(*_random_refs(rng, spec, n_z, m))
    assert second is not first and second.g is not first.g and second.d is not first.d
    for key, value in kept.items():
        assert np.array_equal(getattr(first, key), value)
    assert first.c0 == c0
    for key in ("H", "G", "E", "h"):
        shared = getattr(first, key)
        assert shared is getattr(second, key) and not shared.flags.writeable
    assert first.blocks is second.blocks


def _random_fixings(rng, model, draws):
    """Fixings of random subsets, plus ones that leave a constant row
    violated: a whole step excluded (cardinality) or a binary above 1."""
    for k in range(draws):
        fixed = {}
        for c in range(model.n_cont, model.n):
            if rng.random() < 0.6:
                fixed[c] = float(rng.integers(0, 2))
        if k % 5 == 3 and model.binary_groups:
            group = model.binary_groups[rng.integers(len(model.binary_groups))]
            fixed.update({c: 1.0 for c in group})
        if k % 5 == 4 and model.n_bin:
            fixed[int(rng.choice(np.arange(model.n_cont, model.n)))] = 2.0
        yield fixed
    yield {}
    cells = [int(rng.integers(len(group))) for group in model.binary_groups]
    yield {c: float(idx != j) for group, j in zip(model.binary_groups, cells)
           for idx, c in enumerate(group)}


def _node(model, fixed):
    """The solver's node array of a {column: value} fixing (NaN = free)."""
    node = np.full(model.n_bin, np.nan)
    for c, value in fixed.items():
        node[c - model.n_cont] = value
    return node


def test_node_problem_matches_column_selection(mpc_setup):
    pipe, spec = mpc_setup
    structure = mpc_structure(spec, pipe.ensure_union(), pipe.ensure_big_m())
    n_z, m = spec.B_d.shape
    rng = np.random.default_rng(11)
    model = structure.instantiate(*_random_refs(rng, spec, n_z, m))
    outcomes = set()
    for fixed in _random_fixings(rng, model, 10 if model.n_bin > 100 else 25):
        prob = _node_problem(model, _node(model, fixed))
        ref = _ref_node_problem(model, fixed)
        outcomes.add(prob is None)
        if ref is None:
            assert prob is None
            continue
        for key in ("H", "g", "G", "h", "E", "d"):
            a, b = getattr(prob, key), getattr(ref, key)
            assert (a is None) == (b is None), key
            if a is not None:
                assert a.shape == b.shape and np.array_equal(a, b), key
        assert prob.c0 == ref.c0
        if len(fixed) == model.n_bin:
            assert prob.G is model.blocks.cont.G  # every binary fixed: no copy
    assert outcomes == ({False, True} if model.n_bin else {False})


def test_clf_node_problem_matches_column_selection(clf_bigm_model):
    pipe = build_pipeline(load_scenario(SCENARIOS / "aircraft_clf.yaml"))
    _, _, info = build_controller(pipe)
    U, big_m, plant = pipe.ensure_union(), pipe.ensure_big_m(), pipe.plant
    rng = np.random.default_rng(8)
    for z in ([0.2, 0.0], [-0.1, 0.3], [0.05, -0.2]):
        # the big-M CLF program; MiqpModel builds its node-assembly blocks
        # with ColumnBlocks.of
        model = clf_bigm_model(info["clf_spec"], U, z, plant, big_m)
        for fixed in _random_fixings(rng, model, 10):
            prob = _node_problem(model, _node(model, fixed))
            ref = _ref_node_problem(model, fixed)
            assert (prob is None) == (ref is None)
            if ref is not None:
                for key in ("H", "g", "G", "h"):
                    assert np.array_equal(getattr(prob, key), getattr(ref, key)), key
