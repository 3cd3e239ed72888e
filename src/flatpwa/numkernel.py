"""Dense convex-QP kernel, and the HiGHS LP reference.

Quadratic programs are solved by a dual active-set method (Goldfarb &
Idnani) that needs no feasible start; infeasibility and the iteration cap
come back as statuses, and a branch-and-bound child warm starts from its
parent's working set. It answers every question the pipeline asks, the
offline feasibility ones included: ``polytope.find_point`` is a
minimum-norm QP. ``solve_lp`` hands an LP to HiGHS (through scipy); no
pipeline code calls it, and it stays as the reference the tests compare
the kernel against.

What a QP's matrices alone determine (the checks on H, G and E, G's row
norms and the factors of H and E) is one ``QpMatrices`` record. A
controller poses QPs of few structures and each recurs at every sample, so
whoever owns the matrices builds the record once and passes it to every
``QpProblem`` that shares them; a one-off QP builds its record on the spot.
A branch-and-bound node's record is assembled in closed form from its
structure's one factored record (``miencoding.ColumnBlocks``).

Conventions
-----------
LP:  min c'x   s.t.  G x <= h,  E x = d,  optional per-variable bounds.
QP:  min 1/2 x'H x + g'x + c0   s.t.  G x <= h,  E x = d,  with H >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tolerances import DEFAULT

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(v, name):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass
class LpProblem:
    """min c'x subject to G x <= h, E x = d and optional box bounds."""

    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    E: np.ndarray | None = None
    d: np.ndarray | None = None
    bounds: list | None = None  # per-variable (lo, hi); None entries mean free

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        n = self.c.size
        if self.G is not None:
            self.G = _as_matrix(self.G, "G")
            self.h = _as_vector(self.h, "h")
            if self.G.shape != (self.h.size, n):
                raise ValueError("inconsistent inequality dimensions")
        if self.E is not None:
            self.E = _as_matrix(self.E, "E")
            self.d = _as_vector(self.d, "d")
            if self.E.shape != (self.d.size, n):
                raise ValueError("inconsistent equality dimensions")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("bounds length must match variable count")

    @property
    def n(self):
        return self.c.size


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    ineq_dual: np.ndarray | None = None
    eq_dual: np.ndarray | None = None


def solve_lp(p: LpProblem) -> LpResult:
    """Solve an LP; infeasible/unbounded are regular statuses, not errors."""
    from scipy.optimize import linprog    # only here: scipy is slow to import

    bounds = p.bounds if p.bounds is not None else [(None, None)] * p.n
    res = linprog(
        p.c,
        A_ub=p.G,
        b_ub=p.h,
        A_eq=p.E,
        b_eq=p.d,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return LpResult(
            OPTIMAL,
            x=np.asarray(res.x, dtype=float),
            objective=float(res.fun),
            ineq_dual=None if p.G is None else np.asarray(res.ineqlin.marginals),
            eq_dual=None if p.E is None else np.asarray(res.eqlin.marginals),
        )
    if res.status == 2:
        return LpResult(INFEASIBLE)
    if res.status == 3:
        return LpResult(UNBOUNDED)
    raise RuntimeError(f"LP backend failed (HiGHS status {res.status}: {res.message})")


@dataclass
class QpProblem:
    """min 1/2 x'H x + g'x + c0 subject to G x <= h, E x = d.

    The matrices come either as H, G and E, checked and factored here by
    ``QpMatrices.of``, or as ``matrices``, a record built once for every QP
    that shares them; either way ``H``, ``G`` and ``E`` are the record's.
    """

    H: np.ndarray | None = None
    g: np.ndarray | None = None
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    E: np.ndarray | None = None
    d: np.ndarray | None = None
    c0: float = 0.0
    matrices: QpMatrices | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.matrices is None:
            self.matrices = QpMatrices.of(self.H, self.G, self.E)
        elif not (self.H is None and self.G is None and self.E is None):
            raise ValueError("give H, G and E or their record, not both")
        mats = self.matrices
        self.H, self.G, self.E = mats.H, mats.G, mats.E
        self.g = _as_vector(self.g, "g")
        if self.g.size != mats.n:
            raise ValueError("H must be square and match g")
        if self.G is not None:
            self.h = _as_vector(self.h, "h")
            if self.h.size != self.G.shape[0]:
                raise ValueError("inconsistent inequality dimensions")
        if self.E is not None:
            self.d = _as_vector(self.d, "d")
            if self.d.size != self.E.shape[0]:
                raise ValueError("inconsistent equality dimensions")

    @property
    def n(self):
        return self.g.size


@dataclass
class QpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    active_set: tuple = ()
    ineq_dual: np.ndarray | None = None
    eq_dual: np.ndarray | None = None
    iterations: int = 0


def _qp_objective(p, x):
    return float(0.5 * x @ p.H @ x + p.g @ x + p.c0)


def inverse_roots(sq):
    """1/sqrt(sq) entrywise, 0 where sq is 0: the inverse row norms from
    the squared ones (a zero row then never enters a working set: a
    violated one is reported infeasible)."""
    norms = np.sqrt(sq)
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)


def _inverse_norms(M):
    """1/||row|| for every row of M, 0 for zero rows."""
    return inverse_roots(np.einsum("ij,ij->i", M, M))


def _orthogonalize(Q, v):
    """Coefficients of v on the orthonormal columns of Q and the residual
    (Gram-Schmidt applied twice, so near-dependent v keep orthogonality)."""
    c = Q.T @ v
    r = v - Q @ c
    c2 = Q.T @ r
    return c + c2, r - Q @ c2


def _equality_space(E, n):
    """Null space of E from an SVD of its unit-scaled rows.

    Returns (Z, P): an orthonormal null-space basis and the pseudo-inverse
    of E', which maps a gradient to equality multipliers and, transposed,
    d to the least-norm solution of E x = d. Singular values at most
    ``DEFAULT.qp_dependence`` count as zero, so dependent rows are harmless if
    consistent.
    """
    if E is None:
        return np.eye(n), None
    inv = _inverse_norms(E)
    U, sv, Vt = np.linalg.svd(E * inv[:, None])
    r = int(np.count_nonzero(sv > DEFAULT.qp_dependence))
    return Vt[r:].T, (inv[:, None] * U[:, :r] / sv[:r]) @ Vt[:r]


def _prox_columns(H, E):
    """Cost-free columns that no chain of equality rows ties to a costed one.

    Relaxed binaries are such columns; a cost-free state pinned by the
    dynamics equalities is not, and must not be dragged by a proximal term.
    """
    tied = H.any(axis=0)
    if E is not None:
        links = E != 0.0
        while True:
            grown = tied | links[links[:, tied].any(axis=1)].any(axis=0)
            if (grown == tied).all():
                break
            tied = grown
    return ~tied


def _inverse_factor(Hr, Z):
    """J with J J' = Z (Z'Hr Z)^-1 Z', or None if Hr is (numerically)
    singular on range(Z)."""
    lam, V = np.linalg.eigh(Z.T @ Hr @ Z)
    if lam.size and lam[0] <= DEFAULT.psd * max(1.0, lam[-1]):
        return None
    return (Z @ V) / np.sqrt(lam)


def _columns(M, n, name, kind):
    M = _as_matrix(M, name)
    if M.shape[1] != n:
        raise ValueError(f"inconsistent {kind} dimensions")
    return M


def _read_only(*arrays):
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class QpMatrices:
    """What a QP's matrices alone determine, checked and derived once.

    ``of`` checks that H, G and E are finite with agreeing shapes and that H
    is symmetric within ``DEFAULT.sym`` and positive semidefinite (smallest
    eigenvalue >= -DEFAULT.psd * max(1, |H|)); H is kept as its symmetric part.
    Derived, read-only: ``inv``, G's inverse row norms, and what the dual
    active-set method takes from H and E: the null space ``Z`` and
    multiplier map ``P`` of E, ``scale`` = max(1, |H|), the proximal
    weights ``rho`` (nonzero on the proximal columns), the regularised cost
    ``Hr`` and its inverse factor ``J``.
    """

    H: np.ndarray
    G: np.ndarray | None
    E: np.ndarray | None
    inv: np.ndarray
    Z: np.ndarray
    P: np.ndarray | None
    scale: float
    rho: np.ndarray
    Hr: np.ndarray
    J: np.ndarray | None

    @classmethod
    def of(cls, H, G=None, E=None) -> QpMatrices:
        H = _as_matrix(H, "H")
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        scale = max(1.0, float(np.abs(H).max()))
        if np.abs(H - H.T).max() > DEFAULT.sym * scale:
            raise ValueError("H is not symmetric")
        H = 0.5 * (H + H.T)
        lam_min = float(np.linalg.eigvalsh(H)[0])
        if lam_min < -DEFAULT.psd * scale:
            raise ValueError(f"H is not positive semidefinite (lambda_min={lam_min:g})")
        if E is not None:
            E = _columns(E, n, "E", "equality")
        live = E if E is not None and E.shape[0] else None
        Z, P = _equality_space(live, n)
        scale = max(1.0, float(np.abs(H).max()))     # of the symmetric part
        # if the cost is singular on the equality null space beyond the relaxed
        # binaries, fall back to the proximal term on every column
        for prox in (_prox_columns(H, live), np.ones(n, dtype=bool)):
            rho = DEFAULT.qp_prox * scale * prox
            Hr = H + np.diag(rho)
            J = _inverse_factor(Hr, Z)
            if J is not None:
                break
        _read_only(H, Z, P, rho, Hr, J)
        mats = cls(H=H, G=None, E=E, inv=np.zeros(0), Z=Z, P=P, scale=scale, rho=rho,
                   Hr=Hr, J=J)
        return mats if G is None else mats.with_rows(G)

    @property
    def n(self):
        return self.H.shape[0]

    def with_rows(self, G) -> QpMatrices:
        """This record with the inequality rows G, checked here; the factors
        of H and E are shared."""
        G = _columns(G, self.n, "G", "inequality")
        inv = _inverse_norms(G)
        _read_only(inv)
        return replace(self, G=G, inv=inv)


class _DualActiveSet:
    """Goldfarb-Idnani iterations for min 1/2 x'Hr x + q'x subject to
    G x <= h on the affine set {x_p + Z y}, Hr positive definite there.

    Rows enter at unit norm. With J J' = Z (Z'Hr Z)^-1 Z', the
    equality-constrained minimiser moves along -J J'a when row a pushes on
    it, so step and multiplier updates are least squares on the columns J'a
    of the working rows (kept as a thin QR, QB RB, held through RB^-1), and
    linear dependence is a least-squares residual on their Euclidean
    projections Z'a (kept as an orthonormal basis QY). Both factors grow by
    one Gram-Schmidt column when a row enters and are refactored when rows
    leave. The working set and its multipliers persist across calls with a
    new linear term (proximal passes, warm starts).
    """

    def __init__(self, mats: QpMatrices, h, cap):
        self.G = mats.G if mats.G is not None else np.zeros((0, mats.n))
        self.inv, self.J, self.Z = mats.inv, mats.J, mats.Z
        self.h, self.cap = h, cap
        self.cols = {}
        self.work = []
        self.lam = np.zeros(0)
        self.QY = np.zeros((self.Z.shape[1], 0))
        self.QB = np.zeros((self.J.shape[1], 0))
        self.RBinv = np.zeros((0, 0))

    def _row(self, i):
        col = self.cols.get(i)
        if col is None:
            a = self.G[i] * self.inv[i]
            col = self.cols[i] = (self.Z.T @ a, self.J.T @ a)
        return col

    def _basis(self):
        Y = np.empty((self.Z.shape[1], len(self.work)))
        B = np.empty((self.J.shape[1], len(self.work)))
        for j, i in enumerate(self.work):
            Y[:, j], B[:, j] = self._row(i)
        return Y, B

    def _independent(self, i):
        """Euclidean residual of row i off the working and equality rows,
        or None when it is at most ``DEFAULT.qp_dependence`` (dependent)."""
        resid = _orthogonalize(self.QY, self._row(i)[0])[1]
        norm = np.linalg.norm(resid)
        return resid / norm if norm > DEFAULT.qp_dependence else None

    def _add(self, i, y_unit, cb, zb):
        k = len(self.work)
        nb = np.linalg.norm(zb)
        Rinv = np.zeros((k + 1, k + 1))     # inverse of [[RB, cb], [0, nb]]
        Rinv[:k, :k] = self.RBinv
        Rinv[:k, k] = -(self.RBinv @ cb) / nb
        Rinv[k, k] = 1.0 / nb
        self.RBinv = Rinv
        self.QB = np.column_stack([self.QB, zb / nb])
        self.QY = np.column_stack([self.QY, y_unit])
        self.work.append(i)

    def _keep(self, keep):
        """Shrink the working set to the rows flagged in ``keep``."""
        self.work = [i for i, k in zip(self.work, keep) if k]
        self.lam = self.lam[keep]
        Y, B = self._basis()
        self.QY = np.linalg.qr(Y)[0]
        self.QB, RB = np.linalg.qr(B)
        self.RBinv = np.linalg.inv(RB)

    def _stationary(self, xE):
        """Multipliers and minimiser with every working row held active."""
        if not self.work:
            return np.zeros(0), xE
        r = (self.G[self.work] @ xE - self.h[self.work]) * self.inv[self.work]
        s = self.RBinv.T @ r
        return self.RBinv @ s, xE - self.J @ (self.QB @ s)

    def seed(self, rows, xE):
        """Add the independent ``rows`` to the working set, then drop rows
        with negative multipliers until the set is dual feasible for the
        minimiser ``xE``. Returns that point and the drop count."""
        for i in rows:
            y_unit = None if i in self.work else self._independent(i)
            if y_unit is not None:
                self._add(i, y_unit, *_orthogonalize(self.QB, self._row(i)[1]))
        drops = 0
        while True:
            self.lam, x = self._stationary(xE)
            keep = self.lam >= 0.0
            if keep.all():
                return x, drops
            drops += int(np.count_nonzero(~keep))
            self._keep(keep)

    def polish(self, H, g, x):
        """Step from x, a proximal solution (so every working row is active
        at it), that keeps the working rows active and ignores the proximal
        term: to the minimiser of the cost on that face, or, where the face
        leaves the cost flat with a slope above ``DEFAULT.qp_kkt``, straight
        down that slope.

        Returns (x, multipliers) when the minimiser is a KKT point (rows
        hold, multipliers nonnegative within ``DEFAULT.qp_kkt``); (point,
        None) with a better proximal centre: the minimiser itself when it
        holds every row but a working row's multiplier is negative there
        (the next pass lets that row go), else the point where the step
        first meets another row; or None when the step meets none.
        """
        k = len(self.work)
        Q, R = np.linalg.qr(self._basis()[0], mode="complete")
        N = self.Z @ Q[:, k:]          # null space of E and the working rows
        curv, V = np.linalg.eigh(N.T @ H @ N)
        slope = V.T @ (N.T @ (H @ x + g))
        flat = curv <= DEFAULT.psd * max(1.0, curv.max(initial=0.0))
        if np.abs(slope[flat]).max(initial=0.0) > DEFAULT.qp_kkt:
            step = -N @ (V[:, flat] @ slope[flat])
        else:
            step = -N @ (V[:, ~flat] @ (slope[~flat] / curv[~flat]))
            lam = -np.linalg.solve(R[:k], Q[:, :k].T @ (self.Z.T @ (H @ (x + step) + g)))
            if (self.G @ (x + step) - self.h).max(initial=0.0) <= DEFAULT.feas:
                return x + step, (lam if lam.min(initial=0.0) >= -DEFAULT.qp_kkt else None)
        rate = (self.G @ step) * self.inv
        rate[self.work] = 0.0
        hits = np.flatnonzero(rate > DEFAULT.qp_dependence * np.abs(step).max(initial=0.0))
        if hits.size == 0:
            return None
        tau = np.min((self.h[hits] - self.G[hits] @ x) * self.inv[hits] / rate[hits])
        return x + max(tau, 0.0) * step, None

    def run(self, xE, x, budget):
        """Add violated rows until none is left. Returns (status, x, iterations)."""
        G, h, inv = self.G, self.h, self.inv
        it = 0
        while True:
            viol = G @ x - h
            viol[self.work] = -np.inf
            violated = np.flatnonzero(viol > DEFAULT.feas)
            if violated.size == 0:
                return OPTIMAL, x, it
            p = int(violated[np.argmax(viol[violated] * inv[violated])])
            lam_p = 0.0
            while True:
                if it >= budget:
                    return ITERATION_LIMIT, x, it
                it += 1
                y_unit = self._independent(p)
                cb, z = _orthogonalize(self.QB, self._row(p)[1])
                c = self.RBinv @ cb
                # lam_p grows by t, the working multipliers move by -t c and
                # (unless p is dependent) x by -t J z
                dependent = y_unit is None
                t1 = np.inf if dependent else (G[p] @ x - h[p]) * inv[p] / (z @ z)
                t2, j = np.inf, -1
                shrinking = np.flatnonzero(c > 0.0)
                if shrinking.size:
                    ratios = np.maximum(self.lam[shrinking], 0.0) / c[shrinking]
                    j = int(shrinking[np.argmin(ratios)])
                    t2 = float(ratios.min())
                if np.isinf(t1) and np.isinf(t2):
                    return INFEASIBLE, x, it
                t = min(t1, t2)
                if not dependent:
                    x = x - t * (self.J @ z)
                self.lam = self.lam - t * c
                lam_p += t
                if max(lam_p, self.lam.max(initial=0.0)) > self.cap:
                    return INFEASIBLE, x, it
                if t1 <= t2:
                    self._add(p, y_unit, cb, z)
                    self.lam, x = self._stationary(xE)
                    break
                keep = np.ones(len(self.work), dtype=bool)
                keep[j] = False
                self._keep(keep)


def solve_qp(p: QpProblem, x0=None, active_set=None, max_iter=None) -> QpResult:
    """Dual active-set QP solver (Goldfarb & Idnani 1983; DAQP's form).

    Needs no feasible start: it begins at the equality-constrained
    minimiser and adds violated rows, so infeasibility surfaces as a status.
    Cost-free columns that no equality ties to a costed column (relaxed
    binaries) get a proximal term of weight ``DEFAULT.qp_prox * max(1, |H|)``;
    proximal passes repeat until the centre moves the gradient by at most
    ``DEFAULT.qp_kkt``, or until solving on the working set without the term
    gives a KKT point, which makes H = 0 (an LP) exact. From the second pass
    on, that solve's point (``polish``), if it holds every row, or else
    where its step meets a new row, is the next centre: a pass's own
    solution moves by about the cost's curvature over the proximal weight,
    and re-centring there crawls. ``x0`` seeds the proximal centre and
    ``active_set`` the working set (a branch-and-bound child passes its
    parent's). At ``max_iter`` working-set changes the
    status is ``ITERATION_LIMIT``. G's row norms and the factors of H and E
    are read from ``p.matrices``.
    """
    mats = p.matrices
    n = p.n
    h = p.h if p.h is not None else np.zeros(0)
    E = p.E if p.E is not None and p.E.shape[0] else None
    mi, me = h.size, 0 if E is None else E.shape[0]
    if max_iter is None:
        max_iter = 100 + 10 * (n + mi + me)

    P, scale, rho, Hr, J = mats.P, mats.scale, mats.rho, mats.Hr, mats.J
    prox = rho > 0.0
    x_p = np.zeros(n) if P is None else P.T @ p.d
    if P is not None and np.abs(E @ x_p - p.d).max() > DEFAULT.feas:
        return QpResult(INFEASIBLE)
    cap = DEFAULT.qp_dual_cap * max(scale, DEFAULT.qp_prox * scale,
                                    float(np.abs(p.g).max(initial=0.0)))
    gi = _DualActiveSet(mats, h, cap)

    center = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float) * prox
    seed_rows = () if active_set is None else [int(i) for i in active_set if 0 <= i < mi]
    iters = 0
    passes = 1
    while True:
        xE = x_p - J @ (J.T @ (Hr @ x_p + p.g - rho * center))
        x, drops = gi.seed(seed_rows, xE)
        seed_rows = ()
        iters += 1 + drops
        status, x, used = gi.run(xE, x, max_iter - iters)
        iters += used
        if status != OPTIMAL:
            return QpResult(status, iterations=iters)
        if np.abs(rho * (x - center)).max() <= DEFAULT.qp_kkt:
            break
        if iters >= max_iter:
            return QpResult(ITERATION_LIMIT, iterations=iters)
        # proximal passes crawl where the cost is flat along a face or a
        # cost-free column is held by a row that also binds costed ones:
        # from the second pass on, step along the face without the term
        target = gi.polish(p.H, p.g, x) if passes > 1 else None
        if target is not None and target[1] is not None:
            x, gi.lam = target
            break
        center = (x if target is None else target[0]) * prox
        passes += 1

    ineq_dual = np.zeros(mi)
    lam = np.maximum(gi.lam, 0.0) * gi.inv[gi.work]
    ineq_dual[gi.work] = lam
    eq_dual = None if P is None else -P @ (p.H @ x + p.g + gi.G[gi.work].T @ lam)
    return QpResult(OPTIMAL, x=x, objective=_qp_objective(p, x),
                    active_set=tuple(sorted(gi.work)),
                    ineq_dual=ineq_dual if mi else None,
                    eq_dual=eq_dual, iterations=iters)


def eig_sym(M) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > DEFAULT.sym * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (M + M.T))
