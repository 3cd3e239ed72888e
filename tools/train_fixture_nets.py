"""Offline trainer for the UAV and PMSM surrogate network fixtures.

Full-batch Adam on a one-hidden-layer ReLU net (numpy only). Seeds are
scanned until the enumerated cell count over the documented workspace hits
the target and the dense-sample error clears the certification budget; the
chosen weights are frozen into src/flatpwa/data/.

Run from the repository root:

    python3 tools/train_fixture_nets.py uav
    python3 tools/train_fixture_nets.py pmsm
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatpwa.polytope import HPolytope
from flatpwa.relupwa import ReluNetwork, enumerate_cells, forward
from flatpwa.plants.pmsm import PmsmParams, pmsm_state_part

DATA = Path(__file__).resolve().parents[1] / "src" / "flatpwa" / "data"

UAV_BOX = (3.0, 21.0)   # documented velocity workspace (turn-then-hold demo)


def adam_fit(X, y, w, n1, rng, iters, n_out=1,
             lr_schedule=((0.4, 0.02), (0.75, 0.004), (1.0, 5e-4)),
             init=None):
    n_in = X.shape[1]
    if init is not None:
        W1, b1 = init
    else:
        W1 = rng.normal(0, 1.0, (n1, n_in))
        b1 = rng.normal(0, 2.0, n1)
    W2 = rng.normal(0, 0.5, (n_out, n1))
    b2 = y.mean(axis=0) * 0.5
    params = [W1, b1, W2, b2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    N = X.shape[0]
    for t in range(1, iters + 1):
        frac = t / iters
        lr = next(r for stop, r in lr_schedule if frac <= stop)
        pre = X @ W1.T + b1
        hid = np.maximum(pre, 0.0)
        out = hid @ W2.T + b2
        gout = (2.0 * w[:, None] * (out - y)) / N
        gW2 = gout.T @ hid
        gb2 = gout.sum(0)
        gpre = (gout @ W2) * (pre > 0)
        grads = [gpre.T @ X, gpre.sum(0), gW2, gb2]
        for i, (p, gr) in enumerate(zip(params, grads)):
            m[i] = 0.9 * m[i] + 0.1 * gr
            v[i] = 0.999 * v[i] + 0.001 * gr * gr
            p -= lr * (m[i] / (1 - 0.9 ** t)) / (np.sqrt(v[i] / (1 - 0.999 ** t)) + 1e-8)
    return params


def train_uav(seed, iters=14000):
    rng = np.random.default_rng(seed)
    lo, hi = UAV_BOX
    X = rng.uniform(lo, hi, size=(12000, 2))
    y = np.hypot(X[:, 0], X[:, 1])[:, None]
    # emphasize the box rim where the worst-case error concentrates
    rim = np.maximum(np.abs(X[:, 0] - (lo + hi) / 2),
                     np.abs(X[:, 1] - (lo + hi) / 2)) / ((hi - lo) / 2)
    w = 1.0 + 2.0 * rim ** 4
    w /= w.mean()
    ang = rng.uniform(0, np.pi / 2, 7)
    W1 = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.6, 1.4, (7, 1))
    b1 = -(W1 @ np.array([(lo + hi) / 2] * 2)) + rng.normal(0, 4.0, 7)
    W1, b1, W2, b2 = adam_fit(X, y, w, 7, rng, iters, init=(W1, b1))
    return ReluNetwork(W1=W1, b1=b1, W2=W2, b2=b2,
                       input_labels=["z2 [m/s]", "z4 [m/s]"],
                       output_labels=["u1 [m/s]"])


def uav_metrics(net):
    lo, hi = UAV_BOX
    Z = HPolytope.box([lo, lo], [hi, hi])
    d = enumerate_cells(net, Z)
    gx = np.linspace(lo, hi, 501)
    P = np.column_stack([a.ravel() for a in np.meshgrid(gx, gx)])
    err = float(np.abs(np.hypot(P[:, 0], P[:, 1]) - forward(net, P)[:, 0]).max())
    return len(d), err


def search_uav(seeds=range(60)):
    best = None
    for seed in seeds:
        net = train_uav(seed)
        cells, err = uav_metrics(net)
        print(f"uav seed {seed}: cells={cells} err~{err:.3f}", flush=True)
        if cells == 14 and (best is None or err < best[1]):
            best = (seed, err, net)
    if best is None:
        raise SystemExit("no seed produced 14 cells")
    seed, err, net = best
    print(f"selected uav seed {seed} (dense-sample err {err:.3f})")
    net.save(DATA / "uav_net.json")


def assemble_pmsm(sub: ReluNetwork, params: PmsmParams) -> ReluNetwork:
    """Embed the (z1, z2, z3) subnet into a (z, v) network whose two leading
    neurons are always active on the workspace and carry the exact affine
    v terms of the input map."""
    k = sub.n1
    c = params.v_bound + 1.0
    W1 = np.zeros((k + 2, 5))
    W1[0, 3] = 1.0            # v1 + c, always active for |v1| <= v_bound
    W1[1, 4] = 1.0            # v2 + c
    W1[2:, :3] = sub.W1
    b1 = np.concatenate([[c, c], sub.b1])
    W2 = np.zeros((2, k + 2))
    W2[0, 0] = 1.0
    W2[1, 1] = params.L / params.Y
    W2[:, 2:] = sub.W2
    b2 = sub.b2 - np.array([c, c * params.L / params.Y])
    return ReluNetwork(W1=W1, b1=b1, W2=W2, b2=b2,
                       input_labels=["z1 [Wb]", "z2 [kg m^2/s]", "z3", "v1", "v2"],
                       output_labels=["u1 [V]", "u2 [V]"])


def train_pmsm(seed, n1=5, iters=9000):
    params = PmsmParams()
    rng = np.random.default_rng(seed)
    lo = np.array(params.z_lower)
    hi = np.array(params.z_upper)
    X = rng.uniform(lo, hi, size=(10000, 3))
    y = pmsm_state_part(*X.T, params)
    w = np.ones(X.shape[0])
    sub = adam_fit(X, y, w, n1, rng, iters, n_out=2)
    return assemble_pmsm(ReluNetwork(W1=sub[0], b1=sub[1], W2=sub[2], b2=sub[3]),
                         params)


def pmsm_metrics(net):
    params = PmsmParams()
    lo = list(params.z_lower) + [-params.v_bound] * 2
    hi = list(params.z_upper) + [params.v_bound] * 2
    Z = HPolytope.box(lo, hi)
    d = enumerate_cells(net, Z)
    rng = np.random.default_rng(0)
    P = rng.uniform(lo, hi, size=(200000, 5))
    from flatpwa.plants.pmsm import pmsm_phi
    true = np.column_stack([pmsm_phi(p[:3], p[3:], params) for p in P[:2000]]).T
    nn = forward(net, P[:2000])
    err = float(np.abs(true - nn).max())
    return len(d), err


def search_pmsm(seeds=range(60), widths=(5, 4, 6)):
    best = None
    for n1 in widths:
        for seed in seeds:
            net = train_pmsm(seed, n1=n1)
            cells, err = pmsm_metrics(net)
            print(f"pmsm n1={n1} seed {seed}: cells={cells} err~{err:.4f}", flush=True)
            if cells == 10 and (best is None or err < best[1]):
                best = (seed, err, net, n1)
        if best is not None:
            break
    if best is None:
        raise SystemExit("no seed produced 10 cells")
    seed, err, net, n1 = best
    print(f"selected pmsm n1={n1} seed {seed} (sample err {err:.4f})")
    net.save(DATA / "pmsm_net.json")


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    if which in ("uav", "all"):
        search_uav()
    if which in ("pmsm", "all"):
        search_pmsm()
