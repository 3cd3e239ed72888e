"""Span tracer over the public functions of each flatpwa layer.

The program is not edited: each traced name is rebound, at every module
that imported it, to a wrapper that records one span per call. Spans are
aggregated in memory per layer name (calls, inclusive time, self time =
inclusive time minus the time covered by child spans) together with a few
counts read off the arguments and results at the same boundary.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from flatpwa import (controllers, errorbounds, miencoding, miqpsolver,
                     numkernel, pipeline, polytope, simulate)

# span name -> the modules whose binding of the function is replaced
LAYERS = {
    "numkernel.solve_lp": (numkernel, polytope),
    "numkernel.solve_qp": (miqpsolver, controllers),
    "numkernel.QpProblem": (miqpsolver, controllers),
    "miqpsolver.solve_miqp": (controllers,),
    "miencoding.encode_horizon": (controllers,),
    "miencoding.encode_point": (controllers,),
    "miencoding.build_admissible_union": (pipeline,),
    "miencoding.compute_big_m": (pipeline, miencoding),
    "relupwa.enumerate_cells": (pipeline,),
    "relupwa.pwa_eval_batch": (errorbounds,),
    "errorbounds.grid_error_certificate": (pipeline,),
    "errorbounds.taylor_cell_bounds": (pipeline,),
    "polytope.vertices": (errorbounds,),
    "controllers.clf_step": (controllers,),
    "controllers.mpc_step": (controllers,),
    "simulate.rk4_step": (simulate,),
    "simulate.locate_cell": (simulate, pipeline),
    "simulate.run_closed_loop": (simulate,),
    "pipeline.build_pipeline": (pipeline,),
    "pipeline.build_controller": (pipeline,),
}

# layers whose nested solve_lp calls are counted as their own ``lp_calls``
LP_COUNTED = ("relupwa.enumerate_cells", "miencoding.compute_big_m")


class _Layer:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-layer span aggregates plus counts taken at the same boundaries."""

    def __init__(self):
        self.layers = defaultdict(_Layer)
        self.counts = defaultdict(float)
        self._stack = []       # [name, child time] per open span

    def wrap(self, name, fn):
        stack = self._stack
        layers = self.layers
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if name == "numkernel.solve_lp":
                self._count_lp()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                layer = layers[name]
                layer.calls += 1
                layer.total += dt
                layer.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(self.counts, args, kwargs, out)
            return out

        return traced

    def _count_lp(self):
        if self._stack and self._stack[-1][0] == "numkernel.solve_qp":
            self.counts["numkernel.solve_qp.phase_one"] += 1
        for frame_name, _ in self._stack:
            if frame_name in LP_COUNTED:
                self.counts[frame_name + ".lp_calls"] += 1

    def self_sum(self):
        return sum(layer.self_time for layer in self.layers.values())

    @contextmanager
    def active(self, plant=None):
        """Rebind every traced name (and ``plant.closed_loop_field``) for
        the duration of the block, restoring the originals afterwards."""
        saved = []
        try:
            for name, modules in LAYERS.items():
                attr = name.rsplit(".", 1)[1]
                for mod in modules:
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self.wrap(name, orig))
            if plant is not None:
                orig = plant.closed_loop_field
                saved.append((plant, "closed_loop_field", orig))
                plant.closed_loop_field = self.wrap("plants.closed_loop_field", orig)
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<quantity>`` dictionary."""
        out = {}
        for name, layer in self.layers.items():
            out[name + ".calls"] = layer.calls
            out[name + ".s"] = layer.total
            out[name + ".self_s"] = layer.self_time
        out.update(self.counts)
        qp_calls = self.layers["numkernel.solve_qp"].calls
        out["numkernel.solve_qp.optimal_frac"] = (
            self.counts["numkernel.solve_qp.optimal"] / qp_calls if qp_calls else 0.0)
        out["numkernel.QpProblem.build_s"] = self.layers["numkernel.QpProblem"].total
        enc = self.layers["miencoding.encode_horizon"].calls
        out["miencoding.encode_horizon.model_bytes"] = (
            self.counts["miencoding.encode_horizon.bytes_total"] / enc if enc else 0.0)
        cert = self.layers["errorbounds.grid_error_certificate"]
        pts = self.counts["errorbounds.grid_error_certificate.points"]
        out["errorbounds.grid_error_certificate.points_per_s"] = (
            pts / cert.total if cert.total else 0.0)
        return out


def _observe_qp(counts, args, kwargs, res):
    counts["numkernel.solve_qp.iterations"] += res.iterations
    if res.status == numkernel.OPTIMAL:
        counts["numkernel.solve_qp.optimal"] += 1


def _observe_miqp(counts, args, kwargs, res):
    counts["miqpsolver.solve_miqp.nodes"] += res.node_count
    counts["miqpsolver.solve_miqp.status." + res.status] += 1
    key = "miqpsolver.solve_miqp.gap_max"
    counts[key] = max(counts[key], float(res.gap))


def _observe_horizon(counts, args, kwargs, model):
    arrays = (model.H, model.g, model.G, model.h, model.E, model.d)
    counts["miencoding.encode_horizon.bytes_total"] += sum(a.nbytes for a in arrays)
    key = "miencoding.encode_horizon.g_density"
    if key not in counts and model.G.size:
        # the sparsity pattern is the same at every sample: count it once
        counts[key] = np.count_nonzero(model.G) / model.G.size


def _observe_certificate(counts, args, kwargs, cert):
    counts["errorbounds.grid_error_certificate.points"] += cert.grid_points


_OBSERVERS = {
    "numkernel.solve_qp": _observe_qp,
    "miqpsolver.solve_miqp": _observe_miqp,
    "miencoding.encode_horizon": _observe_horizon,
    "errorbounds.grid_error_certificate": _observe_certificate,
}
