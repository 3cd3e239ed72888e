"""Branch-and-bound MIQP solver plus an exact cell-sequence oracle.

Branching happens on the per-step cell selectors: fixing beta_ij = 0 picks
cell j for step i (the cardinality row forces every sibling to 1), fixing
beta_ij = 1 excludes it. Node relaxations are QPs with the remaining
binaries relaxed to [0, 1], warm started from the parent's active set.
The oracle enumerates every per-step cell sequence and is exact by
construction; it exists to validate the branch-and-bound path.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .miencoding import MiqpModel
from .numkernel import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, QpProblem, solve_qp
from .tolerances import DEFAULT, Tolerances

BUDGET_EXCEEDED = "budget_exceeded"
ORACLE_GUARD = 1_000_000


@dataclass
class SolveBudget:
    max_nodes: int = 100_000
    max_ms: float | None = None


@dataclass
class MiqpResult:
    status: str
    x: np.ndarray | None = None          # continuous block
    beta: np.ndarray | None = None       # integral binaries
    objective: float | None = None
    node_count: int = 0
    wall_time_s: float = 0.0
    gap: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def cell_sequence(self, model: MiqpModel):
        """Chosen cell per step, decoded from the zero binary in each group."""
        if self.beta is None or not model.binary_groups:
            return []
        seq = []
        for group in model.binary_groups:
            vals = [self.beta[c - model.n_cont] for c in group]
            seq.append(int(np.argmin(vals)))
        return seq


def _node_problem(model: MiqpModel, fixed: dict, tol: Tolerances):
    """QP over [x; free binaries] with fixed binaries substituted out.

    Assembled from ``model.blocks``: a fixed binary moves the right-hand
    side of its one row, and with every binary fixed G, E and H are the
    continuous blocks themselves, uncopied. Rows are kept in place (vacuous
    ones become zero rows) so that active-set row indices stay valid across
    the whole tree. Returns (None, keep) when a constant row is already
    violated.
    """
    blocks = model.blocks
    nc = model.n_cont
    value = np.zeros(model.n_bin)
    is_free = np.ones(model.n_bin, dtype=bool)
    if fixed:
        cols = np.fromiter(fixed, int, len(fixed)) - nc
        value[cols] = np.fromiter(fixed.values(), float, len(fixed))
        is_free[cols] = False
    free = np.flatnonzero(is_free)
    keep = np.concatenate([np.arange(nc), nc + free])

    row_free = is_free[blocks.bin_col]
    moved = ~row_free
    h = model.h.copy()
    h[blocks.bin_row[moved]] -= blocks.bin_coef[moved] * value[blocks.bin_col[moved]]
    const = blocks.g_const.copy()
    const[blocks.bin_row[row_free]] = False
    if (h[const] < -tol.feas).any():
        return None, keep
    h[const] = np.maximum(h[const], 0.0)

    d = model.d - blocks.Eb @ value
    if free.size:
        E_free = blocks.Eb[:, free]
        const = blocks.e_const & ~E_free.any(axis=1)
    else:
        const = blocks.e_const
    if (np.abs(d[const]) > tol.feas).any():
        return None, keep
    d = d[~const]
    if free.size:
        E = np.hstack([blocks.Ec, E_free])[~const]
        G = np.hstack([blocks.Gc, model.G[:, nc + free]])
        H = np.zeros((keep.size, keep.size))
        H[:nc, :nc] = model.H[:nc, :nc]
        g = np.concatenate([model.g[:nc], np.zeros(free.size)])
    else:
        E, G, H, g = blocks.Ec_live, blocks.Gc, model.H[:nc, :nc], model.g[:nc]
    prob = QpProblem(H=H, g=g, G=G, h=h, E=E if E.shape[0] else None,
                     d=d if E.shape[0] else None, c0=model.c0, tol=tol)
    return prob, keep


def _assemble(model: MiqpModel, keep, x_free, fixed):
    full = np.empty(model.n)
    full[keep] = x_free
    full[np.fromiter(fixed, int, len(fixed))] = np.fromiter(fixed.values(), float,
                                                            len(fixed))
    return full


def _forced_fixes(model: MiqpModel, fixed: dict):
    """Cardinality implications: all-but-one excluded forces the survivor."""
    changed = True
    fixed = dict(fixed)
    while changed:
        changed = False
        for group in model.binary_groups:
            free = [c for c in group if c not in fixed]
            ones = sum(1 for c in group if fixed.get(c) == 1.0)
            zeros = sum(1 for c in group if fixed.get(c) == 0.0)
            if zeros > 1 or ones == len(group):
                return None  # cardinality row unsatisfiable
            if zeros == 1 and free:
                # one cell chosen: every other sibling is 1
                for c in free:
                    fixed[c] = 1.0
                changed = True
            elif ones == len(group) - 1 and len(free) == 1:
                fixed[free[0]] = 0.0
                changed = True
    return fixed


def solve_miqp(model: MiqpModel, budget: SolveBudget | None = None,
               tol: Tolerances = DEFAULT, initial_cells=None, warm_x=None,
               track_bounds: bool = False) -> MiqpResult:
    """Best-first branch and bound to an absolute gap of ``tol.miqp_gap``.

    ``initial_cells`` (one cell index per step) seeds the incumbent before
    any node is expanded; ``warm_x`` (a full-length candidate, e.g. the
    previous sample's solution) seeds the node QPs' proximal centre. On
    budget exhaustion, or when a node QP hits its iteration cap, the
    incumbent is returned with status ``budget_exceeded``.
    """
    budget = budget or SolveBudget()
    t0 = time.perf_counter()
    bound_pairs = []

    if model.n_bin == 0:
        prob, keep = _node_problem(model, {}, tol)
        if prob is None:
            return MiqpResult(INFEASIBLE, node_count=0,
                              wall_time_s=time.perf_counter() - t0)
        res = solve_qp(prob, tol=tol)
        if res.status != OPTIMAL:
            status = BUDGET_EXCEEDED if res.status == ITERATION_LIMIT else INFEASIBLE
            return MiqpResult(status, node_count=1,
                              wall_time_s=time.perf_counter() - t0)
        return MiqpResult(OPTIMAL, x=res.x[:model.n_cont], beta=np.zeros(0),
                          objective=res.objective, node_count=1,
                          wall_time_s=time.perf_counter() - t0)

    incumbent = None
    incumbent_obj = np.inf
    # a node QP that hits its iteration cap proves nothing about its subtree,
    # so it is never pruned: the search stops with budget_exceeded
    stalled = False

    def node_qp(fixed, warm, warm_set=None):
        nonlocal stalled
        prob, keep = _node_problem(model, fixed, tol)
        if prob is None:
            return None, keep
        res = solve_qp(prob, x0=None if warm is None else warm[keep],
                       active_set=warm_set, tol=tol)
        stalled = stalled or res.status == ITERATION_LIMIT
        return (res if res.status == OPTIMAL else None), keep

    def exact_solve(fix, warm=None):
        fix = _forced_fixes(model, fix)
        if fix is None or len(fix) != model.n_bin:
            return None
        res, keep = node_qp(fix, warm)
        if res is None:
            return None
        return _assemble(model, keep, res.x, fix), res.objective

    if initial_cells is not None:
        fix = {}
        for group, j in zip(model.binary_groups, initial_cells):
            for idx, c in enumerate(group):
                fix[c] = 0.0 if idx == j else 1.0
        cand = exact_solve(fix, warm=warm_x)
        if cand is not None:
            incumbent, incumbent_obj = cand

    counter = itertools.count()
    heap = []

    def push(fixed, warm_x, warm_set, parent_bound):
        fixed = _forced_fixes(model, fixed)
        if fixed is None:
            return
        res, keep = node_qp(fixed, warm_x, warm_set)
        if res is None:
            return
        if track_bounds and parent_bound is not None:
            bound_pairs.append((parent_bound, res.objective))
        if res.objective >= incumbent_obj - tol.miqp_gap:
            return
        full = _assemble(model, keep, res.x, fixed)
        heapq.heappush(heap, (res.objective, next(counter), fixed, full,
                              res.active_set))

    status = OPTIMAL
    if budget.max_nodes > 0:
        root_warm = incumbent if incumbent is not None else warm_x
        push({}, root_warm, None, None)
    else:
        # hint-only mode: return the seeded incumbent without exploring
        status = BUDGET_EXCEEDED
    nodes = 0

    while heap:
        if stalled or nodes >= budget.max_nodes or (
                budget.max_ms is not None
                and (time.perf_counter() - t0) * 1e3 > budget.max_ms):
            status = BUDGET_EXCEEDED
            break
        bound, _, fixed, xfull, aset = heapq.heappop(heap)
        if bound >= incumbent_obj - tol.miqp_gap:
            continue
        nodes += 1
        beta = xfull[model.n_cont:]
        frac = np.abs(beta - np.round(beta))
        free_mask = np.array([model.n_cont + k not in fixed
                              for k in range(model.n_bin)])
        frac = np.where(free_mask, frac, 0.0)
        if frac.max(initial=0.0) <= tol.binary_integrality:
            fix_all = dict(fixed)
            for k in range(model.n_bin):
                col = model.n_cont + k
                if col not in fix_all:
                    fix_all[col] = float(np.round(beta[k]))
            cand = exact_solve(fix_all, warm=xfull)
            if cand is not None and cand[1] < incumbent_obj:
                incumbent, incumbent_obj = cand
            if stalled or frac.max(initial=0.0) == 0.0 or (
                    cand is not None and cand[1] <= bound + tol.miqp_gap):
                continue
            # the rounded leaf is infeasible, or worse than the node bound,
            # although the relaxation was within the integrality tolerance:
            # a big-M row turns that sliver of a binary into real slack, so
            # the leaf does not close the subtree; branch on it instead
        # most fractional free binary; ties fall to the earlier step via
        # the binary column ordering
        k_star = int(np.argmax(frac))
        col = model.n_cont + k_star
        for value in (0.0, 1.0):
            child = dict(fixed)
            child[col] = value
            push(child, xfull, aset, bound)

    if stalled:
        status = BUDGET_EXCEEDED
        best_open = -np.inf      # the stalled subtree has no bound
    else:
        best_open = heap[0][0] if heap else np.inf
    gap = 0.0 if incumbent is None else max(0.0, incumbent_obj - min(best_open,
                                                                     incumbent_obj))
    wall = time.perf_counter() - t0
    diag = {"bound_pairs": bound_pairs} if track_bounds else {}
    if incumbent is None:
        if status == BUDGET_EXCEEDED:
            return MiqpResult(BUDGET_EXCEEDED, node_count=nodes, wall_time_s=wall,
                              diagnostics=diag)
        return MiqpResult(INFEASIBLE, node_count=nodes, wall_time_s=wall,
                          diagnostics=diag)
    return MiqpResult(status, x=incumbent[:model.n_cont],
                      beta=incumbent[model.n_cont:], objective=incumbent_obj,
                      node_count=nodes, wall_time_s=wall, gap=gap,
                      diagnostics=diag)


def solve_by_cell_enumeration(model: MiqpModel, tol: Tolerances = DEFAULT,
                              guard: int = ORACLE_GUARD) -> MiqpResult:
    """Exact optimum by enumerating one cell per step and solving each QP."""
    t0 = time.perf_counter()
    if model.n_bin == 0:
        res = solve_miqp(model, tol=tol)
        res.wall_time_s = time.perf_counter() - t0
        return res
    groups = model.binary_groups
    sizes = [len(g) for g in groups]
    total = 1
    for s in sizes:
        total *= s
    if total > guard:
        raise ValueError(f"{total} cell sequences exceed the oracle guard {guard}")
    best = None
    best_obj = np.inf
    best_fix = None
    solved = 0
    for assignment in itertools.product(*[range(s) for s in sizes]):
        fix = {}
        for group, j in zip(groups, assignment):
            for idx, c in enumerate(group):
                fix[c] = 0.0 if idx == j else 1.0
        prob, keep = _node_problem(model, fix, tol)
        if prob is None:
            continue
        res = solve_qp(prob, tol=tol)
        solved += 1
        if res.status == ITERATION_LIMIT:
            return MiqpResult(BUDGET_EXCEEDED, node_count=solved,
                              wall_time_s=time.perf_counter() - t0)
        if res.status == OPTIMAL and res.objective < best_obj:
            best_obj = res.objective
            best = _assemble(model, keep, res.x, fix)
            best_fix = fix
    wall = time.perf_counter() - t0
    if best is None:
        return MiqpResult(INFEASIBLE, node_count=solved, wall_time_s=wall)
    return MiqpResult(OPTIMAL, x=best[:model.n_cont], beta=best[model.n_cont:],
                      objective=best_obj, node_count=solved, wall_time_s=wall)
