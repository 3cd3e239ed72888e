"""Big-M mixed-integer encodings of the union-of-cells admissible set.

The admissible set is a union of polytopes in the network-input space
(cell half-spaces plus tightened output bounds). Selecting a member with
one binary per cell and a cardinality row

    Theta_j zeta <= theta_j + beta_j M_j,   sum_j beta_j = |A| - 1

keeps exactly one cell's rows hard. Horizon encodings repeat the step
blocks under the discrete dynamics and produce one MIQP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .numkernel import QpMatrices, inverse_roots
from .polytope import HPolytope, intersect, is_empty, row_violations
from .relupwa import PwaDecomposition
from .tolerances import DEFAULT


@dataclass
class AdmissibleUnion(PwaDecomposition):
    """The admissible set: the pieces whose cells, with the tightened output
    bounds appended (support rows + workspace rows + output-bound rows),
    are non-empty."""

    lower: np.ndarray   # tightened output lower bounds
    upper: np.ndarray   # tightened output upper bounds
    eps: np.ndarray


def build_admissible_union(d: PwaDecomposition, u_max, eps,
                           u_min=None) -> AdmissibleUnion:
    """Append tightened output bounds to every cell and drop the emptied ones.

    Symmetric bounds |F zeta + f| <= u_max - eps by default; pass ``u_min``
    for one-sided ranges such as a lower airspeed limit.
    """
    n_out = d.pieces[0].F.shape[0]
    u_max = np.broadcast_to(np.atleast_1d(np.asarray(u_max, dtype=float)), (n_out,))
    eps = np.broadcast_to(np.atleast_1d(np.asarray(eps, dtype=float)), (n_out,)).copy()
    if np.any(eps < 0):
        raise ValueError("tightening eps must be nonnegative")
    if u_min is None:
        u_min = -u_max
    else:
        u_min = np.broadcast_to(np.atleast_1d(np.asarray(u_min, dtype=float)), (n_out,))
    hi = u_max - eps
    lo = u_min + eps
    if np.any(hi <= lo):
        raise ValueError("tightening leaves an empty output range (eps too large)")
    pieces = []
    for p in d.pieces:
        rows = np.vstack([p.F, -p.F])
        rhs = np.concatenate([hi - p.f, p.f - lo])
        zero = np.abs(rows).max(axis=1) == 0.0
        if np.any(rhs[zero] < 0):
            continue  # constant output regime outside the tightened range
        cell = intersect(p.polytope, HPolytope(rows, rhs))
        if is_empty(cell):
            continue
        pieces.append(replace(p, polytope=cell))
    if not pieces:
        raise ValueError("admissible set is empty: every tightened cell vanished")
    return AdmissibleUnion(workspace=d.workspace, pieces=pieces, lower=lo, upper=hi,
                           eps=eps)


@dataclass(frozen=True)
class BigMData:
    """Big-M constants, one per row of the union's stacked rows; ``starts``
    is that layout's first row of each cell."""

    per_row: np.ndarray
    starts: np.ndarray

    @property
    def per_cell(self) -> np.ndarray:
        """Each cell's largest row constant."""
        return np.maximum.reduceat(self.per_row, self.starts)

    @classmethod
    def uniform(cls, U: AdmissibleUnion, value: float):
        rows = U.stacked
        return cls(per_row=np.full(rows.b.size, float(value)), starts=rows.starts)


def compute_big_m(U: AdmissibleUnion, Z_box: HPolytope) -> BigMData:
    """Smallest sound per-row big-M constants over the box Z_box.

    Each row constant is max_{zeta in Z_box} (Theta_j zeta - theta_j),
    floored at zero, read in closed form from the box's corners.
    """
    rows = U.stacked
    violations = row_violations(HPolytope(rows.A, rows.b), Z_box)
    return BigMData(per_row=np.maximum(violations, 0.0), starts=rows.starts)


def validate_big_m_override(U: AdmissibleUnion, Z_box: HPolytope,
                            value: float) -> BigMData:
    """Uniform override, rejected when it undercuts any exact row constant."""
    worst = float(compute_big_m(U, Z_box).per_row.max())
    if value < worst:
        raise ValueError(
            f"big-M override {value} is below the required M*={worst:.4f}; "
            "the relaxation would cut feasible points")
    return BigMData.uniform(U, value)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _sum_free_basis(k):
    """Orthonormal basis of {y in R^k : sum(y) = 0} (Helmert's): column j
    holds 1 on entries 0..j-1 and -j on entry j, scaled to unit norm."""
    i, j = np.arange(k)[:, None], np.arange(1, k)
    basis = np.where(i < j, 1.0, np.where(i == j, -j, 0.0)) / np.sqrt(j * (j + 1.0))
    _frozen(basis)
    return basis


@dataclass(frozen=True)
class ColumnBlocks:
    """A model's rows split by column type, so that a branch-and-bound node
    assembles its QP's matrix record without a factorisation.

    Built once per structure and shared by every model instantiated from it.
    ``G``/``E`` are the model's, ``Eb`` E's binary columns. A row of G
    carries at most one binary, listed as (``bin_row``, ``bin_col``,
    ``bin_coef``) with ``bin_col`` counted from the first binary; ``row_sq``
    holds the squared norms of the continuous part of G's rows.
    ``g_const``/``e_const`` flag the rows without a continuous coefficient.
    Every binary sits in one cardinality row (a sum of binaries alone),
    ``card_row``. ``cont`` is the record of the continuous block (H's
    continuous block, G's continuous columns ``cont.G`` and E's continuous
    rows), the structure's one factorisation.
    """

    G: np.ndarray
    E: np.ndarray
    Eb: np.ndarray
    bin_row: np.ndarray
    bin_col: np.ndarray
    bin_coef: np.ndarray
    row_sq: np.ndarray
    g_const: np.ndarray
    e_const: np.ndarray
    card_row: np.ndarray
    cont: QpMatrices = field(repr=False, compare=False)

    @classmethod
    def of(cls, H, G, E, n_cont):
        Gb = G[:, n_cont:]
        nonzero = Gb != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        if np.count_nonzero(nonzero) > rows.size:
            raise ValueError("an inequality row carries more than one binary")
        cols = nonzero[rows].argmax(axis=1) if rows.size else rows
        Gc = np.ascontiguousarray(G[:, :n_cont])
        Ec, Eb = E[:, :n_cont], np.ascontiguousarray(E[:, n_cont:])
        e_const = ~Ec.any(axis=1)
        card = Eb != 0.0
        if card[~e_const].any() or (card.sum(axis=0) != 1).any() or (Eb[card] != 1.0).any():
            raise ValueError("every binary must sit in one cardinality row, a sum "
                             "of binaries alone")
        row_sq = np.einsum("ij,ij->i", Gc, Gc)
        Ec_live = Ec[~e_const] if (~e_const).any() else None
        cont = replace(QpMatrices.of(H[:n_cont, :n_cont], E=Ec_live), G=Gc,
                       inv=inverse_roots(row_sq))
        blocks = cls(G=G, E=E, Eb=Eb, bin_row=rows, bin_col=cols, bin_coef=Gb[rows, cols],
                     row_sq=row_sq, g_const=~Gc.any(axis=1), e_const=e_const,
                     card_row=card.argmax(axis=0), cont=cont)
        _frozen(Gc, cont.inv, *(getattr(blocks, f.name) for f in fields(blocks)
                                if f.name not in ("G", "E", "cont")))
        return blocks

    @functools.cached_property
    def root(self) -> QpMatrices:
        """The record with every binary free, the same at every sample."""
        return self._assemble(np.ones(self.Eb.shape[1], dtype=bool))

    def matrices(self, is_free):
        """(record, live equality rows) of the node QPs whose free binaries
        are ``is_free``."""
        mats = (self.cont if not is_free.any() else
                self.root if is_free.all() else self._assemble(is_free))
        return mats, ~self.e_const | self.Eb[:, is_free].any(axis=1)

    def _assemble(self, is_free):
        """A node record in closed form. The node QP is block-separable: no
        equality row touches both kinds of column, H is zero on the binaries
        and their proximal weight is one constant, rho. So Z, J and P are
        block-diagonal: ``cont``'s, then, for the k free binaries of each
        cardinality row, Z_g an orthonormal basis of the sums-to-zero
        vectors, J_g = Z_g / sqrt(rho) and 1/k per binary in P. G's row
        norms are ``row_sq`` plus the coefficient of a free binary."""
        cont = self.cont
        nc, nf = cont.n, np.count_nonzero(is_free)
        n = nc + nf
        live = ~self.e_const | self.Eb[:, is_free].any(axis=1)
        kept = np.concatenate([np.ones(nc, dtype=bool), is_free])
        H = np.zeros((n, n))
        H[:nc, :nc] = cont.H
        rho_bin = DEFAULT.qp_prox * cont.scale
        rho = np.concatenate([cont.rho, np.full(nf, rho_bin)])
        sq = self.row_sq.copy()
        on = is_free[self.bin_col]
        sq[self.bin_row[on]] += self.bin_coef[on] ** 2
        card = self.e_const[live]                # the live cardinality rows
        rc = cont.Z.shape[1]
        Z = np.zeros((n, rc + nf - np.count_nonzero(card)))
        Z[:nc, :rc] = cont.Z
        P = np.zeros((card.size, n))
        if cont.P is not None:
            P[~card, :nc] = cont.P
        group, col = self.card_row[is_free], rc
        for i, row in zip(np.flatnonzero(card), np.flatnonzero(live & self.e_const)):
            at = nc + np.flatnonzero(group == row)
            Z[at, col:col + at.size - 1] = _sum_free_basis(at.size)
            P[i, at] = 1.0 / at.size
            col += at.size - 1
        J = Z.copy()
        J[:nc, :rc] = cont.J
        J[nc:] /= np.sqrt(rho_bin)
        return QpMatrices(H=H, G=self.G if kept.all() else self.G[:, kept],
                          E=self.E[np.ix_(live, kept)], inv=inverse_roots(sq), Z=Z, P=P,
                          scale=cont.scale, rho=rho, Hr=H + np.diag(rho), J=J)


@dataclass
class MiqpModel:
    """Quadratic cost + affine rows over [continuous; binary] variables.

    Inequalities G [x; beta] <= h carry at most one binary coefficient per
    row (the -M activation column); equality rows hold the dynamics, the
    initial condition and one cardinality row per step. Binaries carry no
    cost. Models instantiated from one structure share its read-only H, G,
    E and ``blocks``; each owns the arrays its sample changes.
    """

    H: np.ndarray
    g: np.ndarray
    c0: float
    G: np.ndarray
    h: np.ndarray
    E: np.ndarray
    d: np.ndarray
    n_cont: int
    n_bin: int
    binary_groups: list = field(default_factory=list)   # per step: binary column idx
    meta: dict = field(default_factory=dict)
    blocks: ColumnBlocks | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.g[self.n_cont:].any():
            raise ValueError("binary variables must carry no cost")
        if self.blocks is None:
            # a model instantiated from a structure shares its blocks, and
            # its H has no binary entries by construction
            if np.any(self.H[self.n_cont:]):
                raise ValueError("binary variables must carry no cost")
            self.blocks = ColumnBlocks.of(self.H, self.G, self.E, self.n_cont)

    @property
    def n(self):
        return self.n_cont + self.n_bin


def lift_rows(U: AdmissibleUnion, input_map, zeta_dim):
    """The union's stacked rows re-expressed over zeta = (z, v) through the
    selector S; the rows' right-hand sides are ``U.stacked.b``. The one
    place the union meets the input map."""
    S = np.eye(zeta_dim) if input_map is None else np.asarray(input_map, dtype=float)
    if S.shape != (U.workspace.dim, zeta_dim):
        raise ValueError("input map shape does not match cell/zeta dimensions")
    return U.stacked.A @ S


def step_rows(U: AdmissibleUnion, big_m: BigMData, input_map, zeta_dim):
    """One time step's big-M rows over the local columns [zeta; beta]:
    Theta_j zeta - M_j beta_j <= theta_j, one binary per cell. With a single
    cell no binary is needed and the rows are hard. This is the one
    row-block builder: the horizon structure and the point encoding place
    its rows and write their own cardinality rows. Returns (rows, rhs)."""
    lifted = lift_rows(U, input_map, zeta_dim)
    rhs = U.stacked.b
    if len(U) == 1:
        return lifted, rhs
    rows = np.zeros((rhs.size, zeta_dim + len(U)))
    rows[:, :zeta_dim] = lifted
    rows[np.arange(rhs.size), zeta_dim + U.stacked.owner] = -big_m.per_row
    return rows, rhs


@dataclass(frozen=True)
class HorizonStructure:
    """The part of a receding-horizon MIQP that no sample changes.

    Built once per controller: a template model at z0 = 0 without
    references, whose arrays (H, G, h, E, d, the node-assembly blocks) are
    read-only. ``instantiate`` adds what a sample brings: z0 and the
    references.
    """

    template: MiqpModel
    Q: np.ndarray
    R: np.ndarray

    def instantiate(self, z0, z_ref=None, v_ref=None) -> MiqpModel:
        """The model of one sample: a fresh g, c0 and d, the rest shared.

        The steps' terms are stacked products, one small product per step,
        so each rounds as that step's own ``-2 Q z_ref_i`` and
        ``z_ref_i' Q z_ref_i`` would (a single matrix product over all steps
        rounds differently), and c0 sums them in step order."""
        t = self.template
        n_z, m, N_p = t.meta["n_z"], t.meta["m"], t.meta["N_p"]
        z0 = np.asarray(z0, dtype=float)
        if z0.size != n_z:
            raise ValueError("z0 dimension mismatch")
        if z_ref is not None:
            z_ref = np.atleast_2d(np.asarray(z_ref, dtype=float))
            if z_ref.shape[0] < N_p:
                raise ValueError("z_ref horizon shorter than N_p")
        if v_ref is not None:
            v_ref = np.atleast_2d(np.asarray(v_ref, dtype=float))
            if v_ref.shape[0] < N_p:
                raise ValueError("v_ref horizon shorter than N_p")
        Q, R = self.Q, self.R
        n_states = n_z * (N_p + 1)
        zr = np.zeros((N_p, n_z)) if z_ref is None else z_ref[:N_p]
        vr = np.zeros((N_p, m)) if v_ref is None else v_ref[:N_p]
        g = np.zeros(t.n)
        # added to zeros, so that a product of -0.0 is stored as 0.0
        g[:N_p * n_z] += np.matmul(-2.0 * Q, zr[:, :, None]).ravel()
        g[n_states:n_states + N_p * m] += np.matmul(-2.0 * R, vr[:, :, None]).ravel()
        stage = zr[:, None] @ Q @ zr[:, :, None] + vr[:, None] @ R @ vr[:, :, None]
        c0 = float(np.cumsum(stage)[-1])
        d = t.d.copy()
        d[:n_z] = z0
        return replace(t, g=g, c0=c0, d=d, meta=dict(t.meta))


def horizon_structure(U: AdmissibleUnion | None, N_p: int, A_d, B_d, Q, R,
                      big_m: BigMData | None = None,
                      state_rows: HPolytope | None = None, input_map=None,
                      input_rows: HPolytope | None = None) -> HorizonStructure:
    """The sample-independent part of ``encode_horizon``'s MIQP, by block
    assembly: the same blocks repeat at every step, shifted by the step's
    columns."""
    A_d = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
    n_z = A_d.shape[0]
    m = B_d.shape[1]
    if N_p < 1:
        raise ValueError("N_p must be >= 1")
    if A_d.shape != (n_z, n_z) or B_d.shape != (n_z, m):
        raise ValueError("A_d/B_d dimension mismatch")
    Q = np.array(Q, dtype=float, ndmin=2)       # copies: instantiate reads them
    R = np.array(R, dtype=float, ndmin=2)
    use_cells = U is not None
    if use_cells and big_m is None:
        raise ValueError("big_m data required when a union is supplied")
    n_cells = len(U) if use_cells else 0
    use_bin = n_cells > 1
    n_states = n_z * (N_p + 1)
    n_cont = n_states + m * N_p
    n_bin = n_cells * N_p if use_bin else 0
    n = n_cont + n_bin
    zc = np.arange(N_p * n_z).reshape(N_p, n_z)              # z_i columns
    vc = n_states + np.arange(N_p * m).reshape(N_p, m)       # v_i columns
    bc = n_cont + np.arange(n_bin).reshape(N_p, -1)          # beta_i columns

    H = np.zeros((n, n))
    H[zc[:, :, None], zc[:, None, :]] += 2.0 * Q
    H[vc[:, :, None], vc[:, None, :]] += 2.0 * R

    # z_0 = z0 and z_{i+1} - A_d z_i - B_d v_i = 0, then one cardinality
    # row per step
    E = np.zeros((n_states + (N_p if use_bin else 0), n))
    E[np.arange(n_states), np.arange(n_states)] = 1.0
    dyn = n_z + zc
    E[dyn[:, :, None], zc[:, None, :]] = -A_d
    E[dyn[:, :, None], vc[:, None, :]] = -B_d
    d = np.zeros(E.shape[0])
    if use_bin:
        E[n_states + np.arange(N_p)[:, None], bc] = 1.0
        d[n_states:] = float(n_cells - 1)

    # per step: union rows, state rows on z_i, input rows on v_i; then one
    # box row beta <= 1 per binary (integrality is the solver's concern).
    # beta >= 0 needs no row: a step's cardinality row sum(beta) = |A| - 1
    # with every beta <= 1 leaves each beta at least 0
    parts = []                       # (rows, their columns at each step, rhs)
    if use_cells:
        rows, rhs = step_rows(U, big_m, input_map, n_z + m)
        parts.append((rows, np.hstack([zc, vc, bc]), rhs))
    if state_rows is not None:
        parts.append((state_rows.A, zc, state_rows.b))
    if input_rows is not None:
        parts.append((input_rows.A, vc, input_rows.b))
    block = sum(rows.shape[0] for rows, _, _ in parts)
    G = np.zeros((N_p * block + n_bin, n))
    steps = G[:N_p * block].reshape(N_p, block, n)
    first = 0
    for rows, cols, _ in parts:
        at = first + np.arange(rows.shape[0])
        steps[np.arange(N_p)[:, None, None], at[None, :, None], cols[:, None, :]] = rows
        first += rows.shape[0]
    k = np.arange(n_bin)
    G[N_p * block + k, n_cont + k] = 1.0
    h_step = np.concatenate([b for _, _, b in parts]) if parts else np.zeros(0)
    h = np.concatenate([np.tile(h_step, N_p), np.ones(n_bin)])

    g = np.zeros(n)
    _frozen(H, G, h, E, d, g, Q, R)
    template = MiqpModel(
        H=H, g=g, c0=0.0, G=G, h=h, E=E, d=d, n_cont=n_cont, n_bin=n_bin,
        binary_groups=bc.tolist() if use_bin else [],
        meta={"n_z": n_z, "m": m, "N_p": N_p, "num_cells": n_cells})
    return HorizonStructure(template=template, Q=Q, R=R)


def encode_horizon(U: AdmissibleUnion | None, N_p: int, A_d, B_d, Q, R, z0,
                   big_m: BigMData | None = None,
                   state_rows: HPolytope | None = None,
                   input_map=None, z_ref=None, v_ref=None,
                   input_rows: HPolytope | None = None) -> MiqpModel:
    """Receding-horizon MIQP.

    Cost sum_{i=0}^{N_p-1} ||z_i - z_ref_i||_Q^2 + ||v_i - v_ref_i||_R^2 with
    stage indices as printed (no terminal term), dynamics equalities,
    per-step admissible-union big-M groups, optional hard state rows on z_i
    and optional convex rows on v_i.
    ``U=None`` omits the union entirely (the plain-QP base used by FL-MPC).
    A controller builds the structure once (``horizon_structure``) and
    instantiates it per sample; this does both for a single sample.
    """
    return horizon_structure(U, N_p, A_d, B_d, Q, R, big_m, state_rows=state_rows,
                             input_map=input_map, input_rows=input_rows
                             ).instantiate(z0, z_ref, v_ref)


def encode_point(U: AdmissibleUnion, z, big_m: BigMData, input_map, n_z: int,
                 m: int):
    """Single-instant membership rows with z fixed: variables are [v; beta].

    Returns (G, h, E, d, n_bin, groups); rows whose zeta coefficients
    touch only z collapse into constants (infeasible constants surface as
    infeasible rows, which is the honest outcome for states outside the
    workspace). The CLF controller solves this disjunction one cell at a
    time instead; this big-M form is the reference its tests compare with.
    """
    rows, rhs = step_rows(U, big_m, input_map, n_z + m)
    n_bin = len(U) if len(U) > 1 else 0
    n = m + n_bin
    G = np.zeros((rhs.size + n_bin, n))
    G[:rhs.size] = rows[:, n_z:]
    # beta <= 1; the cardinality row implies beta >= 0
    G[rhs.size:, m:] = np.eye(n_bin)
    h = np.concatenate([rhs, np.ones(n_bin)])
    h[:rhs.size] -= np.ascontiguousarray(rows[:, :n_z]) @ np.asarray(z, dtype=float)
    E = np.zeros((1 if n_bin else 0, n))
    E[:, m:] = 1.0
    d = np.full(E.shape[0], float(n_bin - 1))
    return G, h, E, d, n_bin, [list(range(m, n))] if n_bin else []
