"""The benchmark's span tracer (``bench/tracer.py``) rebinds flatpwa
functions by name at the modules that import them. A refactor that drops
or stops calling through one of those names breaks ``bench/run.py --trace 1``
(an ``AttributeError``) or silently empties its layer; these tests catch
that in the regular suite."""

import importlib.util
from pathlib import Path

import numpy as np

from flatpwa.config import load_scenario
from flatpwa.pipeline import (build_controller, build_pipeline,
                              certification_problem, run_certification)

ROOT = Path(__file__).parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    return {(mod.__name__, name.rsplit(".", 1)[1]): getattr(mod, name.rsplit(".", 1)[1])
            for name, modules in layers.items() for mod in modules}


def test_traced_names_are_module_attributes():
    tracer = _tracer()
    for name, modules in tracer.LAYERS.items():
        attr = name.rsplit(".", 1)[1]
        for mod in modules:
            assert callable(getattr(mod, attr, None)), \
                f"{name}: {mod.__name__} has no {attr}"


def _pipeline(scenario):
    path = ROOT / "src" / "flatpwa" / "data" / "scenarios" / f"{scenario}.yaml"
    return build_pipeline(load_scenario(path))


def _check_layers(scenario, layers):
    tracer = _tracer()
    before = _bindings(tracer.LAYERS)
    pipe = _pipeline(scenario)
    with tracer.Tracer().active() as tr:
        ctl, x0, _ = build_controller(pipe)
        ctl(pipe.plant.to_flat(np.asarray(x0)), 0)
    assert _bindings(tracer.LAYERS) == before
    for name in layers:
        assert tr.layers[name].calls >= 1, name


def test_tracer_sees_the_online_layers_and_restores_them():
    _check_layers("aircraft_mpc", ("controllers.mpc_step", "miqpsolver.solve_miqp",
                                   "numkernel.solve_qp", "numkernel.QpProblem"))


def test_tracer_sees_the_clf_step_and_restores_it():
    # a scalar-input CLF step poses no QP, so its layer is the step itself
    _check_layers("aircraft_clf", ("controllers.clf_step",))


def test_tracer_counts_the_certificate_points():
    # the per-layer certify metrics read the certificate span and its points
    tracer = _tracer()
    before = _bindings(tracer.LAYERS)
    pipe = _pipeline("pmsm_case1")
    _, _, (lo, hi), _, _ = certification_problem(pipe)
    pipe.cfg.grid_deltas = (hi - lo) / 20.0
    with tracer.Tracer().active() as tr:
        cert = run_certification(pipe)
    assert _bindings(tracer.LAYERS) == before
    metrics = tr.metrics()
    assert metrics["errorbounds.grid_error_certificate.calls"] == 1
    assert metrics["errorbounds.grid_error_certificate.points"] == cert.grid_points > 1000
    assert metrics["errorbounds.grid_error_certificate.points_per_s"] > 0


def test_tracer_counts_every_rk4_substep_and_field_stage():
    # the per-layer plant metrics count one rk4_step per substep and four
    # field stages per rk4_step, with the field rebound on the plant
    from flatpwa import simulate

    tracer = _tracer()
    before = _bindings(tracer.LAYERS)
    pipe = _pipeline("aircraft_mpc")
    ctl, x0, _ = build_controller(pipe)
    samples, T_s, h = 3, pipe.cfg.T_s, pipe.cfg.substep
    plant = pipe.plant
    field = plant.closed_loop_field
    with tracer.Tracer().active(plant=plant) as tr:
        res = simulate.run_closed_loop(plant, ctl, x0, T_sim=samples * T_s,
                                       T_s=T_s, h=h)
    assert _bindings(tracer.LAYERS) == before
    assert plant.closed_loop_field is field
    assert len(res.records) == samples
    substeps = samples * round(T_s / h)
    assert tr.layers["simulate.run_closed_loop"].calls == 1
    assert tr.layers["simulate.rk4_step"].calls == substeps == 300
    assert tr.layers["plants.closed_loop_field"].calls == 4 * substeps
