"""Exact piecewise-affine decomposition of one-hidden-layer ReLU networks.

For a fixed activation sign vector ``alpha`` in {-1, +1}^n1 the network is
affine,

    F(alpha) = sum_k 1/2 * W2[:, k] (alpha_k + 1) W1[k, :]
    f(alpha) = sum_k 1/2 * W2[:, k] (alpha_k + 1) b1[k] + b2,

valid on the half-space intersection ``-alpha_k W1[k,:] y <= alpha_k b1[k]``.
Enumerating all sign vectors over a workspace box and discarding the
empty intersections yields an exact PWA representation of the network.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .polytope import HPolytope, StackedRows, box_bounds, intersect, is_empty

ENUMERATION_WIDTH_GUARD = 25


@dataclass
class ReluNetwork:
    """Weights of y2 = W2 * relu(W1 y0 + b1) + b2."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    input_labels: list = field(default_factory=list)
    output_labels: list = field(default_factory=list)
    unit_scale: float = 1.0

    def __post_init__(self):
        self.W1 = np.atleast_2d(np.asarray(self.W1, dtype=float))
        self.b1 = np.atleast_1d(np.asarray(self.b1, dtype=float))
        self.W2 = np.atleast_2d(np.asarray(self.W2, dtype=float))
        self.b2 = np.atleast_1d(np.asarray(self.b2, dtype=float))
        if self.W1.shape[0] != self.b1.size:
            raise ValueError("W1/b1 shape mismatch")
        if self.W2.shape != (self.b2.size, self.W1.shape[0]):
            raise ValueError("W2/b2 shape mismatch")
        for name, arr in (("W1", self.W1), ("b1", self.b1),
                          ("W2", self.W2), ("b2", self.b2)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n0(self):
        return self.W1.shape[1]

    @property
    def n1(self):
        return self.W1.shape[0]

    @property
    def n2(self):
        return self.W2.shape[0]

    def to_json(self):
        return {
            "n0": self.n0,
            "n1": self.n1,
            "n2": self.n2,
            "W1": self.W1.tolist(),
            "b1": self.b1.tolist(),
            "W2": self.W2.tolist(),
            "b2": self.b2.tolist(),
            "input_labels": list(self.input_labels),
            "output_labels": list(self.output_labels),
            "unit_scale": self.unit_scale,
        }

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path):
        raw = json.loads(Path(path).read_text())
        net = cls(
            W1=np.array(raw["W1"], dtype=float),
            b1=np.array(raw["b1"], dtype=float),
            W2=np.array(raw["W2"], dtype=float),
            b2=np.array(raw["b2"], dtype=float),
            input_labels=raw.get("input_labels", []),
            output_labels=raw.get("output_labels", []),
            unit_scale=float(raw.get("unit_scale", 1.0)),
        )
        for key in ("n0", "n1", "n2"):
            if key in raw and raw[key] != getattr(net, key):
                raise ValueError(f"{key} in file disagrees with weight shapes")
        return net


def forward(net: ReluNetwork, y0):
    """Network forward pass; accepts a single point or an (N, n0) batch."""
    y0 = np.asarray(y0, dtype=float)
    single = y0.ndim == 1
    pts = np.atleast_2d(y0)
    if pts.shape[1] != net.n0:
        raise ValueError(f"expected input dimension {net.n0}, got {pts.shape[1]}")
    hidden = np.maximum(pts @ net.W1.T + net.b1, 0.0)
    out = hidden @ net.W2.T + net.b2
    return out[0] if single else out


@dataclass
class AffinePiece:
    """One affine regime of the network with its support cell (already
    intersected with the enumeration workspace)."""

    alpha: np.ndarray
    F: np.ndarray
    f: np.ndarray
    polytope: HPolytope


@dataclass
class PwaDecomposition:
    """Affine pieces over a workspace box."""

    workspace: HPolytope
    pieces: list

    @cached_property
    def stacked(self) -> StackedRows:
        """Every piece's rows in one matrix: the layout that point location,
        big-M constants and the controllers' row blocks all read."""
        return StackedRows.of([p.polytope for p in self.pieces])

    @property
    def patterns(self):
        return [tuple(int(a) for a in p.alpha) for p in self.pieces]

    def __len__(self):
        return len(self.pieces)


def affine_maps_for_pattern(net: ReluNetwork, alpha):
    alpha = np.asarray(alpha, dtype=float)
    gate = 0.5 * (alpha + 1.0)  # 1 for active neurons, 0 for inactive
    F = (net.W2 * gate) @ net.W1
    f = (net.W2 * gate) @ net.b1 + net.b2
    return F, f


def pattern_halfspaces(net: ReluNetwork, alpha):
    alpha = np.asarray(alpha, dtype=float)
    A = -alpha[:, None] * net.W1
    b = alpha * net.b1
    return HPolytope(A, b)


def piece_for_pattern(net: ReluNetwork, alpha, workspace: HPolytope):
    """AffinePiece for one activation pattern, or None when its cell misses
    the workspace."""
    alpha = np.asarray(alpha)
    if alpha.size != net.n1:
        raise ValueError("pattern length must equal hidden width")
    cell = intersect(pattern_halfspaces(net, alpha), workspace)
    if is_empty(cell):
        return None
    F, f = affine_maps_for_pattern(net, alpha)
    return AffinePiece(alpha=np.asarray(alpha, dtype=int), F=F, f=f, polytope=cell)


def _forced_signs(net: ReluNetwork, workspace: HPolytope):
    """Per-neuron sign forced by interval bounds over the workspace box: a
    pre-activation that keeps one sign over the whole box keeps it in every
    cell, so the opposite sign's patterns are empty."""
    lo, hi = box_bounds(workspace)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    mid = net.W1 @ center + net.b1
    rad = np.abs(net.W1) @ half
    forced = np.zeros(net.n1, dtype=int)
    forced[mid - rad > 0] = 1
    forced[mid + rad < 0] = -1
    return forced


def enumerate_cells(net: ReluNetwork, workspace: HPolytope) -> PwaDecomposition:
    """Exhaustive cell enumeration over all 2^n1 activation patterns.

    ``workspace`` is a box (``HPolytope.box``); any other polytope raises
    ValueError. Neurons whose pre-activation keeps one sign over the box are
    fixed up front (their opposite-sign patterns are empty by construction),
    which prunes the 2^n1 loop without giving up exactness; every surviving
    candidate is still certified non-empty by `is_empty`.
    """
    if net.n1 > ENUMERATION_WIDTH_GUARD:
        raise ValueError(
            f"hidden width {net.n1} exceeds the 2^n1 enumeration guard "
            f"({ENUMERATION_WIDTH_GUARD}); shrink the network")
    if workspace.dim != net.n0:
        raise ValueError("workspace dimension must equal the network input size")
    forced = _forced_signs(net, workspace)
    free_idx = np.flatnonzero(forced == 0)
    pieces = []
    for bits in itertools.product((-1, 1), repeat=free_idx.size):
        alpha = forced.copy()
        alpha[free_idx] = bits
        piece = piece_for_pattern(net, alpha, workspace)
        if piece is not None:
            pieces.append(piece)
    return PwaDecomposition(workspace=workspace, pieces=pieces)


def pwa_eval_batch(net: ReluNetwork, pts):
    """Vectorized PWA evaluation via per-point activation masks.

    Selecting the piece from the sign of each pre-activation row and applying
    its affine map is algebraically identical to the forward pass. The masks
    come from the network itself; no decomposition is needed. The pipeline
    does not call it (the grid certificate sums the first layer per grid
    axis); the benchmark's tracer rebinds this name in ``errorbounds``.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    pre = pts @ net.W1.T + net.b1
    gate = pre >= 0.0
    return (gate * pre) @ net.W2.T + net.b2


def pwa_lipschitz(d: PwaDecomposition) -> float:
    """gamma_nn = max over pieces of the spectral norm of F."""
    if not d.pieces:
        raise ValueError("empty decomposition")
    return max(float(np.linalg.norm(p.F, 2)) for p in d.pieces)
