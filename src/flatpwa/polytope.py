"""H-representation polytope geometry.

Everything is phrased over ``{x : A x <= b}``. The operations are the ones
the cell-enumeration and error-certification pipeline needs: emptiness,
intersection, exact vertex enumeration for low dimension, and worst-case
row violations over a box (big-M sizing), read in closed form from the
box's bounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .numkernel import INFEASIBLE, OPTIMAL, QpMatrices, QpProblem, solve_qp
# not called here: the benchmark's tracer rebinds this name in this module
from .numkernel import solve_lp  # noqa: F401
from .tolerances import DEFAULT

VERTEX_DIM_LIMIT = 6


@dataclass
class HPolytope:
    """Finite conjunction of half-spaces A x <= b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.A.shape[0] != self.b.size:
            raise ValueError("row count of A must match b")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("polytope data must be finite")
        zero_rows = np.abs(self.A).max(axis=1) == 0.0
        if np.any(zero_rows & (self.b < 0)):
            raise ValueError("zero row with negative offset: set is trivially empty")

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def num_rows(self):
        return self.A.shape[0]

    @classmethod
    def box(cls, lower, upper):
        """Axis-aligned box {lower <= x <= upper}."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(upper < lower):
            raise ValueError("upper < lower")
        d = lower.size
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.concatenate([upper, -lower])
        return cls(A, b)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.max(self.A @ x - self.b) <= DEFAULT.feas)

    def residual(self, x):
        """Largest row violation at x (negative means strictly inside)."""
        return float(np.max(self.A @ np.asarray(x, dtype=float) - self.b))


@dataclass(frozen=True)
class StackedRows:
    """The rows of several polytopes in one matrix, so that a point is
    scanned against all of them at once. The one record of the layout:
    ``starts`` holds each polytope's first row, ``slices`` its rows and
    ``owner`` each row's polytope."""

    A: np.ndarray
    b: np.ndarray
    starts: np.ndarray
    slices: tuple
    owner: np.ndarray

    @classmethod
    def of(cls, polytopes):
        counts = [P.num_rows for P in polytopes]
        starts = np.cumsum([0] + counts[:-1])
        return cls(A=np.vstack([P.A for P in polytopes]),
                   b=np.concatenate([P.b for P in polytopes]),
                   starts=starts,
                   slices=tuple(slice(s, s + c) for s, c in zip(starts, counts)),
                   owner=np.repeat(np.arange(len(counts)), counts))

    def locate(self, y):
        """Index of the first polytope with the smallest max-residual at y,
        or -1 when that residual exceeds ``DEFAULT.feas``. For an (N, dim) batch
        of points, an array of N indices.

        Each residual is one ``einsum`` sum of products, whose rounding does
        not depend on the batch size, so both forms give the same answer,
        on a facet shared by two polytopes too."""
        y = np.asarray(y, dtype=float)
        worst = np.maximum.reduceat(np.einsum("...j,ij->...i", y, self.A) - self.b,
                                    self.starts, axis=-1)
        j = worst.argmin(axis=-1)
        if y.ndim == 1:
            return int(j) if worst[j] <= DEFAULT.feas else -1
        return np.where(worst[np.arange(j.size), j] <= DEFAULT.feas, j, -1)


@dataclass
class VertexSet:
    """Vertices of a polytope plus the row subsets that generated them."""

    points: np.ndarray  # (k, d)
    supports: list = field(default_factory=list)  # row-index tuples per vertex

    def __len__(self):
        return self.points.shape[0]


def intersect(P: HPolytope, Q: HPolytope) -> HPolytope:
    """Row-wise concatenation; no redundancy removal."""
    if P.dim != Q.dim:
        raise ValueError("ambient dimensions differ")
    return HPolytope(np.vstack([P.A, Q.A]), np.concatenate([P.b, Q.b]))


@functools.lru_cache(maxsize=None)
def _unit_cost(dim):
    """The matrix record of the cost 1/2 |x|^2 over ``dim`` variables."""
    return QpMatrices.of(np.eye(dim))


def find_point(P: HPolytope):
    """A point of P, or None when P is empty.

    The minimum-norm point: min 1/2 |x|^2 over P's rows scaled to unit
    norm, from the dual active-set QP kernel, so every row holds within
    ``DEFAULT.feas`` as a distance and scaling a row does not change the
    verdict. An iteration cap is no verdict and raises ValueError.
    """
    norms = np.linalg.norm(P.A, axis=1)
    inv = 1.0 / np.where(norms > 0.0, norms, 1.0)    # a zero row holds: b >= 0
    res = solve_qp(QpProblem(g=np.zeros(P.dim), h=P.b * inv,
                             matrices=_unit_cost(P.dim).with_rows(P.A * inv[:, None])))
    if res.status == OPTIMAL:
        return res.x
    if res.status == INFEASIBLE:
        return None
    raise ValueError(f"feasibility QP stopped with status {res.status!r}")


def is_empty(P: HPolytope) -> bool:
    return find_point(P) is None


def is_bounded(P: HPolytope) -> bool:
    """True when the recession cone {y : A y <= 0} holds no y with y_i >= 1
    or y_i <= -1 for any coordinate i; for a nonempty P that is boundedness.
    """
    cone = HPolytope(P.A, np.zeros(P.num_rows))
    for row in np.vstack([-np.eye(P.dim), np.eye(P.dim)]):
        if not is_empty(intersect(cone, HPolytope(row, [-1.0]))):
            return False
    return True


def vertices(P: HPolytope) -> VertexSet:
    """Exact vertex enumeration by solving all d-subsets of active rows.

    Only valid (and guarded) for dim <= 6; the caller guarantees boundedness
    by intersecting with a workspace box first, and we verify it.
    """
    m, d = P.A.shape
    if d > VERTEX_DIM_LIMIT:
        raise ValueError(f"vertex enumeration limited to dim <= {VERTEX_DIM_LIMIT}")
    if m < d:
        raise ValueError("fewer rows than dimensions: unbounded")
    if not is_bounded(P):
        raise ValueError("polytope is unbounded")
    pts = []
    supports = []
    for rows in combinations(range(m), d):
        Asub = P.A[list(rows)]
        bsub = P.b[list(rows)]
        try:
            v = np.linalg.solve(Asub, bsub)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(v)):
            continue
        if np.max(P.A @ v - P.b) > DEFAULT.feas:
            continue
        dup = False
        for q in pts:
            if np.max(np.abs(q - v)) <= DEFAULT.vertex_dedupe:
                dup = True
                break
        if not dup:
            pts.append(v)
            supports.append(rows)
    if not pts:
        return VertexSet(np.zeros((0, d)), [])
    return VertexSet(np.array(pts), supports)


def box_bounds(Z: HPolytope):
    """(lower, upper) of a box in the row layout ``HPolytope.box`` writes,
    [I; -I] over [upper; -lower]; any other polytope raises ValueError."""
    d = Z.dim
    if not np.array_equal(Z.A, np.vstack([np.eye(d), -np.eye(d)])):
        raise ValueError("region is not an axis-aligned box in [I; -I] row layout")
    return -Z.b[d:], Z.b[:d]


def row_violations(P: HPolytope, Z: HPolytope) -> np.ndarray:
    """Per-row worst violation max_{x in Z} (A_j x - b_j) over a box Z, in
    closed form: each row's maximum sits at the corner its signs pick."""
    if P.dim != Z.dim:
        raise ValueError("ambient dimensions differ")
    lower, upper = box_bounds(Z)
    return (P.A * np.where(P.A > 0, upper, lower)).sum(axis=1) - P.b
