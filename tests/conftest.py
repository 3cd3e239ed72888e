import numpy as np
import pytest

from flatpwa.miencoding import (MiqpModel, build_admissible_union, encode_point,
                                validate_big_m_override)
from flatpwa.numkernel import OPTIMAL, LpProblem, solve_lp
from flatpwa.plants import aircraft, pmsm, uav
from flatpwa.relupwa import ReluNetwork, enumerate_cells
from flatpwa.simulate import rk4_step


def _data(name):
    from pathlib import Path
    import flatpwa
    return Path(flatpwa.__file__).parent / "data" / name


@pytest.fixture(scope="session")
def aircraft_net():
    return ReluNetwork.load(_data("aircraft_net.json"))


@pytest.fixture(scope="session")
def uav_net():
    return ReluNetwork.load(_data("uav_net.json"))


@pytest.fixture(scope="session")
def pmsm_net():
    return ReluNetwork.load(_data("pmsm_net.json"))


@pytest.fixture(scope="session")
def aircraft_plant():
    return aircraft.make_plant()


@pytest.fixture(scope="session")
def uav_plant():
    return uav.make_plant()


@pytest.fixture(scope="session")
def pmsm_plant():
    return pmsm.make_plant()


@pytest.fixture(scope="session")
def aircraft_cells(aircraft_net, aircraft_plant):
    return enumerate_cells(aircraft_net, aircraft_plant.net_workspace)


@pytest.fixture(scope="session")
def aircraft_union(aircraft_cells):
    return build_admissible_union(aircraft_cells, u_max=5.0, eps=0.1897)


@pytest.fixture(scope="session")
def aircraft_bigm(aircraft_union, aircraft_plant):
    return validate_big_m_override(aircraft_union, aircraft_plant.net_workspace,
                                   5000.0)


def _clf_bigm_model(spec, U, z, plant, big_m):
    """The CLF projection in big-M form over [v; beta]: ``encode_point``'s
    rows plus the decrease row, the reference for the per-cell controller."""
    z = np.asarray(z, dtype=float)
    m = plant.B.shape[1]
    G, h, E, d, n_bin, groups = encode_point(U, z, big_m, plant.input_map,
                                             z.size, m)
    n = m + n_bin
    row = np.zeros(n)
    row[:m] = 2.0 * plant.B.T @ spec.P @ z
    rhs = float(-spec.gamma * z @ spec.P @ z - 2.0 * z @ spec.P @ plant.A @ z)
    vd = spec.v_d(z)
    H = np.zeros((n, n))
    H[:m, :m] = 2.0 * np.eye(m)
    g = np.zeros(n)
    g[:m] = -2.0 * vd
    return MiqpModel(H=H, g=g, c0=float(vd @ vd), G=np.vstack([G, row]),
                     h=np.append(h, rhs), E=E, d=d, n_cont=m, n_bin=n_bin,
                     binary_groups=groups)


@pytest.fixture(scope="session")
def clf_bigm_model():
    return _clf_bigm_model


@pytest.fixture(scope="session")
def uav_cells(uav_net, uav_plant):
    return enumerate_cells(uav_net, uav_plant.net_workspace)


@pytest.fixture(scope="session")
def pmsm_cells(pmsm_net, pmsm_plant):
    return enumerate_cells(pmsm_net, pmsm_plant.net_workspace)


def _piece_values(cells, pts):
    """The decomposition's own value at each point: the batch locator picks
    a piece and its F, f are applied. Points it places in no cell (-1) are
    dropped; returns (kept points, values)."""
    j = cells.stacked.locate(pts)
    inside = j >= 0
    F = np.stack([p.F for p in cells.pieces])[j[inside]]
    f = np.stack([p.f for p in cells.pieces])[j[inside]]
    return pts[inside], np.einsum("nij,nj->ni", F, pts[inside]) + f


@pytest.fixture(scope="session")
def piece_values():
    return _piece_values


def _chebyshev_center(P):
    """Center and radius of the largest Euclidean ball inside P (HiGHS LP);
    the radius is ~0 for a cell with empty interior."""
    norms = np.linalg.norm(P.A, axis=1)
    c = np.zeros(P.dim + 1)
    c[-1] = -1.0
    res = solve_lp(LpProblem(c, G=np.hstack([P.A, norms[:, None]]), h=P.b,
                             bounds=[(None, None)] * P.dim + [(0.0, None)]))
    assert res.status == OPTIMAL
    return res.x[:-1], float(res.x[-1])


@pytest.fixture(scope="session")
def chebyshev_center():
    return _chebyshev_center


# the cell of the published big-M appendix: the fully-active aircraft cell
# with tightened output rows, printed to three decimals
PAPER_THETA2 = np.array([
    [7.212, 1.076],
    [-7.212, -1.076],
    [7.094, -0.035],
    [-4.200, 0.021],
])
PAPER_THETA2_RHS = np.array([3.571, 4.049, 1.427, 0.852])


@pytest.fixture(scope="session")
def paper_cell2():
    from flatpwa.polytope import HPolytope
    return HPolytope(PAPER_THETA2, PAPER_THETA2_RHS)


def _rk4_integrate(f, x0, u_of_t, T, h):
    """Classical RK4 over [0, T] with step h; returns (times, states)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    steps = int(round(T / h))
    if abs(steps * h - T) > 1e-9 * max(1.0, T):
        raise ValueError("h must divide T within rounding")
    x = np.asarray(x0, dtype=float).tolist()
    ts = [0.0]
    xs = [x]
    for k in range(steps):
        x = rk4_step(f, x, u_of_t(k * h), h)
        ts.append((k + 1) * h)
        xs.append(x)
    return np.array(ts), np.array(xs)


@pytest.fixture(scope="session")
def rk4_integrate():
    return _rk4_integrate
