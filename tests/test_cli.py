import json
from pathlib import Path

import pytest
import yaml

from flatpwa.cli import main
from flatpwa.config import parse_scenario

SCENARIOS = Path(__file__).parents[1] / "src" / "flatpwa" / "data" / "scenarios"


def run(args):
    return main([str(a) for a in args])


def test_enumerate_writes_report(tmp_path):
    code = run(["enumerate", "--config", SCENARIOS / "aircraft_mpc.yaml",
                "--out", tmp_path, "--vertices"])
    assert code == 0
    report = json.loads((tmp_path / "cells.json").read_text())
    assert report["num_cells"] == 3
    for cell in report["cells"]:
        assert set(cell) >= {"alpha", "F", "f", "Theta", "theta", "vertex_count"}
        assert cell["vertex_count"] >= 3


def test_bigm_report(tmp_path):
    code = run(["bigm", "--config", SCENARIOS / "aircraft_mpc.yaml",
                "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "bigm.json").read_text())
    assert report["per_cell"] == [5000.0] * 3


def test_verify_clf_exit_code(tmp_path):
    assert run(["verify-clf", "--config", SCENARIOS / "aircraft_clf.yaml",
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "clf.json").read_text())
    assert report["pass"] is True


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: spaceship\n")
    assert run(["simulate", "--config", bad, "--out", tmp_path]) == 4
    assert "plant" in capsys.readouterr().err


def test_config_error_reports_field_path(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: aircraft\ntuning:\n  N_p: -2\n")
    assert run(["simulate", "--config", bad, "--out", tmp_path]) == 4
    assert "tuning.N_p" in capsys.readouterr().err


@pytest.mark.parametrize("field, text", [
    ("tuning.T_s", "tuning:\n  T_s: abc\n"),
    ("simulation.duration", "simulation:\n  duration: [1, 2]\n"),
    ("budgets.max_ms", "budgets:\n  max_ms: fast\n"),
    ("reference.radius", "reference:\n  radius: wide\n"),
])
def test_non_numeric_config_value_exit_code(tmp_path, capsys, field, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: aircraft\n" + text)
    assert run(["simulate", "--config", bad, "--out", tmp_path]) == 4
    assert field in capsys.readouterr().err


def _edited(tmp_path, scenario, edits):
    """A shipped scenario with ``edits`` applied: {"section.key": value},
    where a value of None deletes the key."""
    raw = yaml.safe_load((SCENARIOS / f"{scenario}.yaml").read_text())
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        if value is None:
            del raw[section][key]
        else:
            raw.setdefault(section, {})[key] = value
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


ASYMMETRIC_P = [[0.1430, 0.1932], [0.0, 0.6378]]


@pytest.mark.parametrize("command, scenario, edits, flags, field", [
    ("simulate", "aircraft_clf", {"tuning.P": None}, [], "tuning.P"),
    ("simulate", "aircraft_clf", {"tuning.gamma": None}, [], "tuning.gamma"),
    ("simulate", "aircraft_clf", {"tuning.K": None}, [], "tuning.K"),
    ("simulate", "aircraft_clf", {"tuning.P": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
     [], "tuning.P"),
    ("simulate", "aircraft_clf", {"tuning.K": [[3.16, 2.55, 1.0]]}, [], "tuning.K"),
    ("simulate", "aircraft_clf", {"tuning.P": ASYMMETRIC_P}, [], "tuning.P"),
    ("verify-clf", "aircraft_clf", {"tuning.P": ASYMMETRIC_P}, [], "tuning.P"),
    ("simulate", "aircraft_clf", {"tuning.P": [[0.0, 0.0], [0.0, 0.0]]}, [],
     "tuning.P"),
    ("simulate", "aircraft_clf", {"tuning.P": [[1.0, 0.0], [0.0, -1.0]]}, [],
     "tuning.P"),
    ("simulate", "aircraft_mpc", {"tuning.Q": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
     [], "tuning.Q"),
    ("simulate", "aircraft_mpc", {"tuning.Q": [[20.0, 1.0], [0.0, 0.5]]}, [], "tuning.Q"),
    ("simulate", "aircraft_mpc", {"tuning.R": [[0.005, 0.0], [0.0, 0.005]]}, [],
     "tuning.R"),
    ("simulate", "aircraft_mpc", {"simulation.x0": [0.25, 0.0, 0.0]}, [],
     "simulation.x0"),
    ("simulate", "aircraft_clf", {"simulation.x0": [0.2]}, [], "simulation.x0"),
    ("simulate", "aircraft_mpc", {"workspace.lower": [-1.0, -1.0, -1.0],
                                  "workspace.upper": [1.0, 1.0, 1.0]}, [], "workspace"),
    ("simulate", "aircraft_mpc", {}, ["--budget-ms", "-1"], "--budget-ms"),
    ("simulate", "aircraft_mpc", {}, ["--budget-ms", "nan"], "--budget-ms"),
    ("certify", "uav_tracking", {"grid.deltas": [0.5, 0.5]}, ["--threads", "0"],
     "--threads"),
    ("certify", "uav_tracking", {"grid.deltas": [0.5, 0.5]}, ["--threads", "-3"],
     "--threads"),
    ("simulate", "aircraft_mpc", {"simulation.substep": 0.03}, [],
     "simulation.substep"),
    ("simulate", "aircraft_mpc", {"simulation.substep": 0.25}, [],
     "simulation.substep"),
    ("simulate", "pmsm_case1", {"tuning.T_s": 0.0015}, [], "simulation.substep"),
    ("simulate", "aircraft_mpc", {"simulation.duration": 10.05}, [],
     "simulation.duration"),
    ("simulate", "aircraft_mpc", {"simulation.duration": 0.04}, [],
     "simulation.duration"),
    ("simulate", "aircraft_mpc", {"tightening.u_max": [5.0, 5.0]}, [],
     "tightening.u_max"),
    ("simulate", "aircraft_mpc", {"tightening.u_min": [-5.0, 1.0]}, [],
     "tightening.u_min"),
    ("simulate", "uav_tracking", {"tightening.u_max": [26.0, 0.5774]}, [],
     "tightening.u_max"),
    ("certify", "aircraft_mpc", {"grid.deltas": [0.01, 0.05],
                                 "grid.taylor_u_max": [4.0, 4.0]}, [],
     "grid.taylor_u_max"),
    ("certify", "aircraft_mpc", {"grid.deltas": [0.01, 0.01, 0.01]}, [], "grid.deltas"),
], ids=["clf-P-missing", "clf-gamma-missing", "clf-K-missing", "clf-P-shape",
        "clf-K-shape", "clf-P-asymmetric", "verify-clf-P-asymmetric", "clf-P-zero",
        "clf-P-indefinite", "mpc-Q-shape", "mpc-Q-asymmetric", "mpc-R-shape",
        "mpc-x0-length", "clf-x0-length", "workspace-dimension", "budget-ms-negative",
        "budget-ms-nan", "threads-zero", "threads-negative", "substep-not-dividing",
        "substep-above-period", "period-not-divided", "duration-fractional",
        "duration-below-period", "u-max-longer-than-outputs",
        "u-min-longer-than-outputs", "uav-u-max-per-input", "taylor-u-max-length",
        "grid-deltas-length"])
def test_tuning_checked_against_the_plant_exit_code(tmp_path, capsys, command,
                                                    scenario, edits, flags,
                                                    field):
    cfg = _edited(tmp_path, scenario, edits)
    assert run([command, "--config", cfg, "--out", tmp_path, *flags]) == 4
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_one_output_length_error_asks_for_one_entry(tmp_path, capsys):
    # the aircraft network has one output: its u_max takes a single entry
    cfg = _edited(tmp_path, "aircraft_mpc", {"tightening.u_max": [5.0, 5.0]})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 4
    assert ("tightening.u_max: expected 1 entry (one per network output), got 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("T_s, substep, duration", [
    (0.1, 0.02, 0.3), (0.1, 0.1, 10.0), (0.05, 0.001, 6.0), (0.001, 0.001, 8.0),
])
def test_substeps_and_samples_that_fit_are_accepted(T_s, substep, duration):
    # whole within 1e-9 relative: 0.3 / 0.1 and 10.0 / 0.1 are not exact
    cfg = parse_scenario({"plant": "aircraft", "tuning": {"T_s": T_s},
                          "simulation": {"substep": substep, "duration": duration}})
    assert (cfg.T_s, cfg.substep, cfg.duration) == (T_s, substep, duration)


def test_verify_clf_reports_a_singular_p(tmp_path):
    # P = 0 is not positive definite: a failed check (exit 2), not an error
    cfg = _edited(tmp_path, "aircraft_clf", {"tuning.P": [[0.0, 0.0], [0.0, 0.0]]})
    assert run(["verify-clf", "--config", cfg, "--out", tmp_path]) == 2
    report = json.loads((tmp_path / "clf.json").read_text())
    assert report == {"pd_min_eig": 0.0, "lmi_max_eig": None, "pass": False}


def test_oversized_eps_exit_code(tmp_path, capsys):
    # an eps that empties the tightened output range is a configuration
    # error (exit 4 with the field's path), not a traceback
    raw = (SCENARIOS / "aircraft_mpc.yaml").read_text()
    assert "eps: [0.1897]" in raw
    cfg = tmp_path / "eps.yaml"
    cfg.write_text(raw.replace("eps: [0.1897]", "eps: [9.0]"))
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 4
    assert "tightening.eps" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path):
    cfg = tmp_path / "infeasible.yaml"
    cfg.write_text(
        "plant: aircraft\ncontroller: mpc\n"
        "tightening: {u_max: [5.0], eps: [0.1897]}\n"
        "tuning: {Q: [[20.0, 1.0], [1.0, 0.5]], R: [[0.005]], N_p: 5, "
        "T_s: 0.1, big_m: 5000}\n"
        "simulation: {x0: [0.5, 0.0], duration: 1.0}\n")
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2


def test_simulate_deterministic_traces(tmp_path):
    cfg = tmp_path / "short.yaml"
    cfg.write_text(
        "plant: aircraft\ncontroller: mpc\n"
        "tightening: {u_max: [5.0], eps: [0.1897]}\n"
        "tuning: {Q: [[20.0, 1.0], [1.0, 0.5]], R: [[0.005]], N_p: 3, "
        "T_s: 0.1, big_m: 5000}\n"
        "simulation: {x0: [0.2, 0.0], duration: 1.5}\n")
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "trace.csv").read_text()
    b = (tmp_path / "b" / "trace.csv").read_text()

    def strip_timing(text):
        # the wall-clock column is the one quantity that cannot be
        # reproduced bit-for-bit between runs
        return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())

    assert strip_timing(a) == strip_timing(b)
    header = a.splitlines()[0]
    assert header == "t,x1,x2,z1,z2,u1,v1,cell_index,solver_ms"
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["input_violations"] == 0
    assert summary["state_violations"] == 0
    # what branch and bound did: every step certified optimal
    assert summary["status_counts"] == {"optimal": summary["steps"]}
    assert summary["max_nodes"] >= 0


def test_certify_reports_taylor_table(tmp_path):
    cfg = tmp_path / "coarse.yaml"
    cfg.write_text(
        "plant: aircraft\n"
        "tightening: {u_max: [5.0], eps: [0.1897]}\n"
        "grid: {deltas: [0.01, 0.05], taylor_u_max: [4.0]}\n")
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["grid_certificate"]["grid_points"] > 0
    assert len(report["taylor_cells"]) == 3
    assert report["lipschitz"]["gamma_phi"] == pytest.approx(29.42, abs=0.05)


def test_certify_threads_match_serial(tmp_path):
    # the pool evaluates the serial run's chunks and merges them in order
    cfg = _edited(tmp_path, "uav_tracking", {"grid.deltas": [0.5, 0.5]})
    certs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert run(["certify", "--config", cfg, "--out", out,
                    "--threads", threads]) == 0
        certs.append(json.loads((out / "certificate.json").read_text())
                     ["grid_certificate"])
    serial, pooled = certs
    assert serial["grid_points"] == pooled["grid_points"] > 0
    assert pooled["eps_bar"] == serial["eps_bar"]
    assert pooled["argmax"] == serial["argmax"]


def test_certify_budget_exit_code(tmp_path):
    cfg = tmp_path / "dense.yaml"
    cfg.write_text("plant: aircraft\ngrid: {deltas: [1.0e-05, 1.0e-05]}\n")
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 3
