import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_traces.py"
HEADER = "t,x1,z1,u1,v1,cell_index,solver_ms\n"
BASE = ["0.000000,0.1,0.1,0.5,0.2,0,1.234",
        "0.100000,0.2,0.2,0.4,0.1,1,0.900"]


def _tree(root, traces, reports=None):
    """One trace per scenario, and ``reports``: {scenario: {file: text}}."""
    for name, rows in traces.items():
        (root / name).mkdir(parents=True)
        (root / name / "trace.csv").write_text(HEADER + "".join(r + "\n" for r in rows))
    for name, files in (reports or {}).items():
        for report, text in files.items():
            (root / name / report).write_text(text)
    return root


def _compare(a, b):
    out = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def test_compare_traces(tmp_path):
    a = _tree(tmp_path / "a", {"s1": BASE, "s2": BASE})
    # only the wall-clock column differs
    other_clock = [r.replace("1.234", "9.999") for r in BASE]
    code, out = _compare(a, _tree(tmp_path / "b", {"s1": other_clock, "s2": BASE}))
    assert code == 0 and out.count("bit-identical") == 2
    moved = [BASE[0], BASE[1].replace(",0.1,1,", ",0.15,1,")]
    code, out = _compare(a, _tree(tmp_path / "c", {"s1": moved, "s2": BASE}))
    assert code == 0 and "s1: v1 max |delta| 0.05\n" in out
    recelled = [BASE[0], BASE[1].replace(",1,0.900", ",2,0.900")]
    code, out = _compare(a, _tree(tmp_path / "d", {"s1": recelled, "s2": BASE}))
    assert code == 1 and "s1: cell_index differs at 1 steps (first: [1])" in out
    code, out = _compare(a, _tree(tmp_path / "e", {"s1": BASE}))
    assert code == 1 and "s2: missing" in out
    assert _compare(tmp_path / "none", tmp_path / "none")[0] == 2


def test_compare_traces_checks_set_up_reports(tmp_path):
    reports = {"cells.json": '{"num_cells": 3}\n', "bigm.json": '{"per_cell": [1.0]}\n',
               "summary.json": '{"mean_solver_ms": 1.0}\n'}
    a = _tree(tmp_path / "a", {"s1": BASE, "s2": BASE}, {"s1": reports})
    # only a clock field of summary.json moved
    timed = dict(reports, **{"summary.json": '{"mean_solver_ms": 2.0}\n'})
    code, out = _compare(a, _tree(tmp_path / "b", {"s1": BASE, "s2": BASE},
                                  {"s1": timed}))
    assert code == 0 and out == "s1: bit-identical\ns2: bit-identical\n"
    # one byte of big-M moves: the report is named, even with the trace equal
    moved = dict(reports, **{"bigm.json": '{"per_cell": [1.5]}\n'})
    code, out = _compare(a, _tree(tmp_path / "c", {"s1": BASE, "s2": BASE},
                                  {"s1": moved}))
    assert code == 1 and out.startswith("s1: bigm.json differs\n")
    # and next to a moved column
    shifted = [BASE[0], BASE[1].replace(",0.1,1,", ",0.15,1,")]
    code, out = _compare(a, _tree(tmp_path / "d", {"s1": shifted, "s2": BASE},
                                  {"s1": moved}))
    assert code == 1 and "s1: v1 max |delta| 0.05; bigm.json differs\n" in out
    only_cells = {"cells.json": reports["cells.json"]}
    code, out = _compare(a, _tree(tmp_path / "e", {"s1": BASE, "s2": BASE},
                                  {"s1": only_cells}))
    assert code == 1 and f"s1: bigm.json missing in {tmp_path / 'e' / 's1'}" in out


def test_compare_traces_checks_the_certificate_field_by_field(tmp_path):
    def certificate(**grid):
        fields = {"eps_tilde": [0.18], "eps_bar": [0.2], "wall_time_s": 0.13, **grid}
        return {"certificate.json": json.dumps({"plant": "aircraft",
                                                "grid_certificate": fields})}

    a = _tree(tmp_path / "a", {"s1": BASE}, {"s1": certificate()})
    # only the wall clock moved: equal, though the bytes differ
    code, out = _compare(a, _tree(tmp_path / "b", {"s1": BASE},
                                  {"s1": certificate(wall_time_s=0.99)}))
    assert code == 0 and out == "s1: bit-identical\n"
    # one ulp of eps_tilde is a moved field, named by its path
    moved = certificate(eps_tilde=[0.18000000000000002], wall_time_s=0.99)
    code, out = _compare(a, _tree(tmp_path / "c", {"s1": BASE}, {"s1": moved}))
    assert code == 1
    assert out == "s1: certificate.json differs in grid_certificate.eps_tilde\n"


def test_compare_traces_checks_the_summary_but_its_clock(tmp_path):
    def summary(**fields):
        fields = {"steps": 2, "mean_solver_ms": 1.0, "max_solver_ms": 2.0,
                  "max_nodes": 7, "status_counts": {"optimal": 2}, **fields}
        return {"summary.json": json.dumps(fields)}

    a = _tree(tmp_path / "a", {"s1": BASE}, {"s1": summary()})
    code, out = _compare(a, _tree(tmp_path / "b", {"s1": BASE},
                                  {"s1": summary(mean_solver_ms=3.0, max_solver_ms=9.0)}))
    assert code == 0 and out == "s1: bit-identical\n"
    # the branch-and-bound counts are compared, the trace being equal
    moved = summary(max_nodes=8, status_counts={"optimal": 1, "budget_exceeded": 1},
                    max_solver_ms=9.0)
    code, out = _compare(a, _tree(tmp_path / "c", {"s1": BASE}, {"s1": moved}))
    assert code == 1
    assert out == ("s1: summary.json differs in max_nodes, status_counts.budget_exceeded, "
                   "status_counts.optimal\n")


WRITER = TOOL.parent / "write_traces.py"


def test_write_traces_feeds_compare_traces(tmp_path):
    # two runs of one short scenario: the tree compare_traces reads (trace,
    # set-up reports and certificate), and bit-identical on one thread
    for side in ("a", "b"):
        out = subprocess.run([sys.executable, str(WRITER), str(tmp_path / side),
                              "aircraft_flmpc"], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["aircraft_flmpc"]
    assert sorted(p.name for p in (tmp_path / "a" / "aircraft_flmpc").iterdir()) == [
        "bigm.json", "cells.json", "certificate.json", "summary.json", "trace.csv"]
    code, out = _compare(tmp_path / "a", tmp_path / "b")
    assert code == 0 and out == "aircraft_flmpc: bit-identical\n"
    missing = subprocess.run([sys.executable, str(WRITER), str(tmp_path / "c"),
                              "no_such_scenario"], capture_output=True, text=True)
    assert missing.returncode == 1
