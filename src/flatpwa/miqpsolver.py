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
import math
import time
from dataclasses import dataclass

import numpy as np

from .miencoding import MiqpModel
from .numkernel import (INFEASIBLE, ITERATION_LIMIT, OPTIMAL, QpMatrices, QpProblem,
                        solve_qp)
from .tolerances import DEFAULT

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

    def cell_sequence(self, model: MiqpModel):
        """Chosen cell per step, decoded from the zero binary in each group."""
        if self.beta is None or not model.binary_groups:
            return []
        return np.argmin(self.beta[_groups(model)], axis=1).tolist()


# A node of the search is an array over the binaries: a fixed binary holds its
# value, a free one NaN. A node without a free binary is a leaf.

def _groups(model: MiqpModel):
    """Binary offsets, one row per step's cardinality group (every step
    selects among the same cells, so the rows have one length)."""
    if not model.binary_groups:
        return np.zeros((0, 0), dtype=int)
    return np.array(model.binary_groups) - model.n_cont


def _cell_leaf(model: MiqpModel, cells):
    """The leaf of a cell sequence: at step i the binary of cell ``cells[i]``
    is 0 and its siblings are 1. A step without a cell in range keeps every
    binary at 1, which its cardinality row rejects."""
    groups = _groups(model)
    cells = np.asarray(cells, dtype=int)[:len(groups)]
    fix = np.ones(model.n_bin)
    fix[groups[:cells.size]] = np.arange(groups.shape[1]) != cells[:, None]
    return fix


def _implied(groups, fix):
    """Apply the cardinality rows: a chosen cell (a binary at 0) forces its
    siblings to 1, and siblings all at 1 but one free force that one to 0.
    The groups are disjoint, so one pass reaches the fix-point. Returns None
    when a group can no longer hold exactly one chosen cell."""
    vals = fix[groups]
    zeros = (vals == 0.0).sum(axis=1)
    ones = (vals == 1.0).sum(axis=1)
    size = groups.shape[1]
    if (zeros > 1).any() or (ones == size).any():
        return None
    fill = np.where(zeros == 1, 1.0, np.where(ones == size - 1, 0.0, np.nan))
    fix = fix.copy()
    fix[groups] = np.where(np.isnan(vals), fill[:, None], vals)
    return fix


def _kept(model: MiqpModel, fix):
    """Mask of a node QP's columns within [x; beta]: the continuous columns
    and the free binaries."""
    return np.concatenate([np.ones(model.n_cont, dtype=bool), np.isnan(fix)])


def _assemble(model: MiqpModel, fix, x_node):
    """[x; beta] from a node QP's solution and the node's fixed binaries."""
    full = np.concatenate([np.empty(model.n_cont), fix])
    full[_kept(model, fix)] = x_node
    return full


def _node_matrices(model: MiqpModel, is_free):
    """(record, live equality rows) of the node QPs whose free binaries are
    ``is_free``: they depend on nothing else, so the structure's store
    builds them the first time that set occurs."""
    blocks = model.blocks

    def build():
        nc = model.n_cont
        free = np.flatnonzero(is_free)
        if free.size:
            E_free = blocks.Eb[:, free]
            live = ~blocks.e_const | E_free.any(axis=1)
            E = np.hstack([blocks.Ec, E_free])[live]
            G = np.hstack([blocks.Gc, model.G[:, nc + free]])
            H = np.zeros((nc + free.size, nc + free.size))
            H[:nc, :nc] = model.H[:nc, :nc]
        else:
            live = ~blocks.e_const
            E, G, H = blocks.Ec_live, blocks.Gc, model.H[:nc, :nc]
        return QpMatrices.of(H, G, E if E.shape[0] else None), live

    return blocks.records.get(is_free.tobytes(), build)


def _node_problem(model: MiqpModel, fix):
    """QP over [x; free binaries] with fixed binaries substituted out.

    Its matrices come from ``_node_matrices``, so with every binary fixed G
    is ``blocks.Gc`` itself, uncopied; a fixed binary moves the right-hand
    side of its one row. Rows are kept in place (vacuous ones become zero
    rows) so that active-set row indices stay valid across the whole tree.
    Returns None when a constant row is already violated.
    """
    blocks = model.blocks
    is_free = np.isnan(fix)
    value = np.where(is_free, 0.0, fix)

    row_free = is_free[blocks.bin_col]
    moved = ~row_free
    h = model.h.copy()
    h[blocks.bin_row[moved]] -= blocks.bin_coef[moved] * value[blocks.bin_col[moved]]
    const = blocks.g_const.copy()
    const[blocks.bin_row[row_free]] = False
    if (h[const] < -DEFAULT.feas).any():
        return None
    h[const] = np.maximum(h[const], 0.0)

    mats, live = _node_matrices(model, is_free)
    d = model.d - blocks.Eb @ value
    if (np.abs(d[~live]) > DEFAULT.feas).any():
        return None
    g = np.concatenate([model.g[:model.n_cont], np.zeros(mats.n - model.n_cont)])
    return QpProblem(g=g, h=h, d=None if mats.E is None else d[live],
                     c0=model.c0, matrices=mats)


def solve_miqp(model: MiqpModel, budget: SolveBudget | None = None,
               initial_cells=None) -> MiqpResult:
    """Best-first branch and bound to an absolute gap of ``DEFAULT.miqp_gap``.

    Every node is solved once, when it is created. A node with a free
    binary goes on the heap; a leaf is offered as the incumbent. The cell
    sequence ``initial_cells`` (one cell index per step) is such a leaf,
    solved before the root, as is the rounding of a near-integral node and
    the root of a model without binaries. On budget exhaustion, or when a
    node QP hits its iteration cap, the incumbent is returned with status
    ``budget_exceeded``.
    """
    budget = budget or SolveBudget()
    t0 = time.perf_counter()
    groups = _groups(model)
    incumbent = None
    incumbent_obj = np.inf
    # a node QP that hits its iteration cap proves nothing about its subtree,
    # so it is never pruned: the search stops with budget_exceeded
    stalled = False
    counter = itertools.count()
    heap = []

    def push(fix, warm=None, warm_set=None, leaf_gap=DEFAULT.miqp_gap):
        """Solve the node ``fix``; queue it while a binary is free, else take
        it as the incumbent when it is lower by more than ``leaf_gap``.
        Returns the node's objective, or None when it is infeasible."""
        nonlocal incumbent, incumbent_obj, stalled
        fix = _implied(groups, fix)
        if fix is None:
            return None
        prob = _node_problem(model, fix)
        if prob is None:
            return None
        res = solve_qp(prob, x0=None if warm is None else warm[_kept(model, fix)],
                       active_set=warm_set)
        stalled = stalled or res.status == ITERATION_LIMIT
        if res.status != OPTIMAL:
            return None
        full = _assemble(model, fix, res.x)
        if np.isnan(fix).any():
            if res.objective < incumbent_obj - DEFAULT.miqp_gap:
                heapq.heappush(heap, (res.objective, next(counter), fix, full,
                                      res.active_set))
        elif res.objective < incumbent_obj - leaf_gap:
            incumbent, incumbent_obj = full, res.objective
        return res.objective

    if initial_cells is not None:
        push(_cell_leaf(model, initial_cells), leaf_gap=0.0)

    status = OPTIMAL
    if budget.max_nodes > 0 or not model.n_bin:    # a binary-free root is a leaf
        push(np.full(model.n_bin, np.nan), warm=incumbent)
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
        bound, _, fix, xfull, aset = heapq.heappop(heap)
        if bound >= incumbent_obj - DEFAULT.miqp_gap:
            continue
        nodes += 1
        beta = xfull[model.n_cont:]
        rounded = np.round(beta)
        free = np.isnan(fix)
        frac = np.where(free, np.abs(beta - rounded), 0.0)
        if frac.max() <= DEFAULT.binary_integrality:
            leaf_obj = push(np.where(free, rounded, fix), warm=xfull, leaf_gap=0.0)
            if stalled or frac.max() == 0.0 or (
                    leaf_obj is not None and leaf_obj <= bound + DEFAULT.miqp_gap):
                continue
            # the rounded leaf is infeasible, or worse than the node bound,
            # although the relaxation was within the integrality tolerance:
            # a big-M row turns that sliver of a binary into real slack, so
            # the leaf does not close the subtree; branch on it instead
        # most fractional free binary; ties fall to the earlier step via
        # the binary column ordering
        k_star = int(np.argmax(frac))
        for value in (0.0, 1.0):
            child = fix.copy()
            child[k_star] = value
            push(child, warm=xfull, warm_set=aset)

    if stalled:
        status = BUDGET_EXCEEDED
        best_open = -np.inf      # the stalled subtree has no bound
    else:
        best_open = heap[0][0] if heap else np.inf
    wall = time.perf_counter() - t0
    if incumbent is None:
        return MiqpResult(INFEASIBLE if status == OPTIMAL else status,
                          node_count=nodes, wall_time_s=wall)
    return MiqpResult(status, x=incumbent[:model.n_cont],
                      beta=incumbent[model.n_cont:], objective=incumbent_obj,
                      node_count=nodes, wall_time_s=wall,
                      gap=max(0.0, incumbent_obj - best_open))


def solve_by_cell_enumeration(model: MiqpModel,
                              guard: int = ORACLE_GUARD) -> MiqpResult:
    """Exact optimum by enumerating one cell per step and solving each QP."""
    t0 = time.perf_counter()
    sizes = [len(g) for g in model.binary_groups]
    total = math.prod(sizes)
    if total > guard:
        raise ValueError(f"{total} cell sequences exceed the oracle guard {guard}")
    best = None
    best_obj = np.inf
    solved = 0
    for cells in itertools.product(*map(range, sizes)):
        fix = _cell_leaf(model, cells)
        prob = _node_problem(model, fix)
        if prob is None:
            continue
        res = solve_qp(prob)
        solved += 1
        if res.status == ITERATION_LIMIT:
            return MiqpResult(BUDGET_EXCEEDED, node_count=solved,
                              wall_time_s=time.perf_counter() - t0)
        if res.status == OPTIMAL and res.objective < best_obj:
            best_obj = res.objective
            best = _assemble(model, fix, res.x)
    wall = time.perf_counter() - t0
    if best is None:
        return MiqpResult(INFEASIBLE, node_count=solved, wall_time_s=wall)
    return MiqpResult(OPTIMAL, x=best[:model.n_cont], beta=best[model.n_cont:],
                      objective=best_obj, node_count=solved, wall_time_s=wall)
