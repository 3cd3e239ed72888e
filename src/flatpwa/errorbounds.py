"""Certified bounds on the approximation error of the PWA surrogate.

Two routes:

* dense-grid evaluation with Lipschitz padding: the measured grid maximum
  eps_tilde plus gamma_eps * rho_bar covers every point of the grid's hull
  (the box spanned by the first and last sample of each axis), where
  rho_bar is the supremal distance from a hull point to its nearest grid
  sample. The samples are the multiples of each step inside the workspace
  box, so unless its bounds are multiples of the steps, strips at the box
  edges lie outside the hull, farther than rho_bar from every sample, and
  the padding does not cover them. The grid is a tensor product, and the
  true map is evaluated on its open mesh, one coordinate array per axis,
  never on materialised grid points;
* per-cell Taylor analysis: a first-order expansion of the true map at a
  cell's linearization point bounds the in-cell error by the Taylor residual
  C_zeta * r_e / 2 plus the surrogate-vs-expansion error at the cell's
  vertices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .polytope import vertices
from .relupwa import PwaDecomposition, pwa_lipschitz
from .relupwa import pwa_eval_batch  # noqa: F401  (bench/tracer.py rebinds it here)

GRID_POINT_BUDGET = 50_000_000


class GridBudgetExceeded(ValueError):
    """The certification grid has more points than its budget allows."""


@dataclass
class GridSpec:
    """Uniform grid i * delta per axis, clipped to the workspace box."""

    deltas: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.deltas = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if not (self.deltas.shape == self.lower.shape == self.upper.shape):
            raise ValueError("deltas/lower/upper must share one shape")
        if np.any(self.deltas <= 0):
            raise ValueError("grid steps must be positive")
        if np.any(self.upper < self.lower):
            raise ValueError("upper < lower")

    @classmethod
    def symmetric(cls, deltas, bounds):
        bounds = np.atleast_1d(np.asarray(bounds, dtype=float))
        return cls(deltas, -bounds, bounds)

    @property
    def rho_bar(self):
        """Supremal granularity sqrt(sum (delta_i/2)^2): the farthest a point
        of the grid's hull lies from its nearest sample. Workspace points
        outside the hull, between a box bound and the outermost multiple of
        the step, can lie farther out (up to a whole step per axis)."""
        return float(np.linalg.norm(self.deltas / 2.0))

    def axis_points(self, i):
        # indices i*delta inside [lower, upper]; endpoints enter only when
        # exactly representable (tiny slack absorbs float rounding)
        d = self.deltas[i]
        i_min = int(np.ceil(self.lower[i] / d - 1e-9))
        i_max = int(np.floor(self.upper[i] / d + 1e-9))
        return np.arange(i_min, i_max + 1) * d

    @property
    def shape(self):
        return tuple(self.axis_points(i).size for i in range(self.deltas.size))

    @property
    def num_points(self):
        n = 1
        for s in self.shape:
            n *= s
        return n


@dataclass
class ErrorCertificate:
    eps_tilde: np.ndarray       # grid maximum per output row
    gamma_eps: np.ndarray       # Lipschitz constant of the error, per row
    rho_bar: float
    grid_points: int
    wall_time_s: float
    argmax: np.ndarray | None = None

    @property
    def eps_bar(self):
        return self.eps_tilde + self.gamma_eps * self.rho_bar

    def to_json(self):
        return {
            "eps_tilde": self.eps_tilde.tolist(),
            "gamma_eps": self.gamma_eps.tolist(),
            "rho_bar": self.rho_bar,
            "eps_bar": self.eps_bar.tolist(),
            "grid_points": self.grid_points,
            "wall_time_s": self.wall_time_s,
            "argmax": None if self.argmax is None else self.argmax.tolist(),
        }


@dataclass
class TaylorCellBound:
    pattern: tuple
    center: np.ndarray
    radius: float
    eps_taylor: float
    eps_vertices: float
    num_vertices: int

    @property
    def total(self):
        return self.eps_taylor + self.eps_vertices


def _grid_mesh(grid: GridSpec):
    """The grid's open mesh (``np.ix_``): axis i runs along dimension i."""
    return np.ix_(*(grid.axis_points(i) for i in range(grid.deltas.size)))


def grid_error_certificate(phi, d: PwaDecomposition, net, grid: GridSpec,
                           gamma_phi, chunk_rows: int = 25_000) -> ErrorCertificate:
    """Grid-max error with Lipschitz padding.

    ``phi`` is called coordinate-wise, ``phi(x_1, ..., x_n_in)``, on an open
    mesh of the grid: x_i holds values of axis i along dimension i only, so
    a factor that depends on few coordinates runs on few values. It returns
    the broadcast mesh shape (one output) or that shape + (n_out,); any
    other shape raises ``ValueError``. gamma_eps = gamma_phi + gamma_nn via
    the triangle inequality. A grid of more than ``GRID_POINT_BUDGET`` points
    raises ``GridBudgetExceeded``.

    The grid is a tensor product, walked in C order one chunk at a time on
    one thread: a chunk is as many whole slabs as fit in ``chunk_rows``
    points (at least one), a slab one value of the slowest axis times the
    full tail grid of the other axes. No grid point is formed. The
    surrogate's first layer is summed per axis: the tail's term
    ``tail @ W1[:, 1:].T + b1`` is formed once per certificate, and each
    chunk adds its head's ``head * W1[:, 0]`` to it before the ReLU and the
    output layer (the forward pass up to the order of the first layer's
    sum). The pre-activation and error buffers are allocated once, for a
    full chunk, and each chunk writes into their leading part, so they stay
    near cache size and no chunk allocates them anew. The argmax is read back
    from its index on the axes.
    """
    total = grid.num_points
    if total > GRID_POINT_BUDGET:
        raise GridBudgetExceeded(
            f"grid has {total} points, over the budget of {GRID_POINT_BUDGET}; "
            "choose coarser steps")
    n_out = d.pieces[0].F.shape[0]
    gamma_phi = np.broadcast_to(np.atleast_1d(np.asarray(gamma_phi, dtype=float)),
                                (n_out,)).copy()
    gamma_eps = gamma_phi + pwa_lipschitz(d)

    t0 = time.perf_counter()
    head, *tail = _grid_mesh(grid)
    tail_pts = (np.stack(np.broadcast_arrays(*tail), axis=-1).reshape(-1, len(tail))
                if tail else np.zeros((1, 0)))
    # pre-activations stored unit-major, (n1, points): every sweep below runs
    # along the points
    tail_pre = np.ascontiguousarray((tail_pts @ net.W1[:, 1:].T + net.b1).T)
    w_head = net.W1[:, 0]
    n1, slab = tail_pre.shape
    block = max(1, chunk_rows // slab)
    pre_buf = np.empty(n1 * block * slab)
    err_buf = np.empty(n_out * block * slab)

    best = np.zeros(n_out)
    arg = None
    for k in range(0, head.size, block):
        mesh = (head[k:k + block], *tail)
        shape = np.broadcast_shapes(*(a.shape for a in mesh))
        n = math.prod(shape)
        tr = np.asarray(phi(*mesh), dtype=float)
        if tr.shape == shape:
            tr = tr[..., None]
        if tr.shape != shape + (n_out,):
            raise ValueError(f"phi returned shape {tr.shape} on a mesh of shape "
                             f"{shape}; expected {shape} or {shape + (n_out,)}")
        pre = pre_buf[:n1 * n].reshape(n1, shape[0], slab)
        np.add(np.multiply.outer(w_head, mesh[0].ravel())[:, :, None],
               tail_pre[:, None, :], out=pre)
        pre = pre.reshape(n1, n)
        np.maximum(pre, 0.0, out=pre)
        err = err_buf[:n_out * n].reshape(n_out, n)
        np.matmul(net.W2, pre, out=err)
        err += net.b2[:, None]
        np.subtract(tr.reshape(n, n_out).T, err, out=err)
        np.abs(err, out=err)
        m = err.max(axis=1)
        if arg is None or m.max() > best.max():
            j = int(err.max(axis=0).argmax())   # first point holding the chunk's max
            at = np.unravel_index(j, shape)
            arg = np.array([a.ravel()[i] for a, i in zip(mesh, at)])
        best = np.maximum(best, m)
    wall = time.perf_counter() - t0
    return ErrorCertificate(eps_tilde=best, gamma_eps=gamma_eps,
                            rho_bar=grid.rho_bar, grid_points=total,
                            wall_time_s=wall, argmax=arg)


def taylor_cell_bounds(phi, phi_grad, pieces, C_zeta) -> list:
    """Per-cell Taylor + vertex bounds for a scalar-output surrogate.

    Each entry of ``pieces`` must expose ``polytope`` / ``F`` / ``f`` (both
    decomposition pieces and admissible-union members qualify). The
    linearization point is the vertex centroid of the cell and the radius is
    the smallest 1-norm ball at that center containing the cell, matching
    the published per-cell analysis.
    """
    out = []
    for p in pieces:
        V = vertices(p.polytope)
        if len(V) == 0:
            raise ValueError("cell has no vertices (empty or degenerate)")
        center = V.points.mean(axis=0)
        radius = float(np.max(np.abs(V.points - center).sum(axis=1)))
        grad = np.atleast_1d(np.asarray(phi_grad(center), dtype=float))
        taylor = float(phi(center)) + (V.points - center) @ grad
        surrogate = V.points @ p.F[0] + p.f[0]
        eps_h = float(np.max(np.abs(surrogate - taylor)))
        out.append(TaylorCellBound(
            pattern=tuple(int(a) for a in p.alpha),
            center=center,
            radius=radius,
            eps_taylor=float(C_zeta) * radius / 2.0,
            eps_vertices=eps_h,
            num_vertices=len(V),
        ))
    return out
