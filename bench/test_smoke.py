"""Smoke test of the benchmark: every workload at a tiny length.

Runs ``bench/run.py --all`` untraced and traced with three samples per
trajectory, and checks that each workload exits cleanly, passes its output
checks and emits every metric ``BENCHMARK.json`` names, with its unit; and
that the benchmark refuses to run without the program sources. It takes
about two minutes (the grid certificates run at full size):

    python -m pytest bench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run_bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(trace):
    proc = run_bench(ROOT, "--all", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--steps", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # one "## <workload> (exit <code>)" section per child process
    sections = re.split(r"^## (\S+) \(exit (\d+)\)$", proc.stdout, flags=re.M)[1:]
    reports = {name: (int(code), body.strip().splitlines())
               for name, code, body in zip(sections[::3], sections[1::3], sections[2::3])}
    assert sorted(reports) == sorted(WORKLOADS)

    specs = MANIFEST["per_layer" if trace else "end_to_end"]
    for workload, (code, lines) in reports.items():
        assert code == 0, workload
        result = json.loads(next(l for l in lines if l.startswith('{"correct"')))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(s["name"] for s in specs)
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert any(line.startswith(f"{spec['name']} = ") for line in lines)
            if not trace:
                assert metric["value"] > 0, (workload, spec["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
