#!/usr/bin/env python3
"""flatpwa benchmark: closed-loop workloads, one process each.

Run from the repository root:

    python3 bench/run.py --workload clf_1khz --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all --seed 1 [--trace 1]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs a fixed amount of work twice, untraced and
then traced, and reports the per-layer metrics. The report lines name every
metric with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--all`` runs every workload in its own child process, prints each
child's report and then a table.
See ``bench/METRICS.md`` for the metrics and what each should move.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; child processes inherit the pin.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_manifest():
    if not MANIFEST.is_file():
        fail(f"{MANIFEST.name} not found at the repository root")
    return json.loads(MANIFEST.read_text())


def import_program():
    """Import flatpwa from this checkout's sources, never from elsewhere."""
    if not (SRC / "flatpwa" / "__init__.py").is_file():
        fail(f"no flatpwa sources under {SRC.relative_to(ROOT)}/ in this checkout")
    sys.path.insert(0, str(SRC))
    import flatpwa
    if Path(flatpwa.__file__).resolve().parent != (SRC / "flatpwa").resolve():
        fail(f"flatpwa imported from {flatpwa.__file__}, not from {SRC}")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "flatpwa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"    # e.g. an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps_cap": args.steps,
    }


def run_one(args, manifest):
    import_program()
    from workloads import run_workload

    env = environment(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.steps)
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in manifest[group]:
        if not args.trace and spec["name"] not in out["metrics"]:
            fail(f"workload {args.workload} did not measure {spec['name']}")
        # a layer the workload never enters reads 0
        value = float(out["metrics"].get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = all(out["checks"].values())

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    info = out["info"]
    for key in sorted(info):
        print(f"# {key} = {info[key]}")
    for key, ok in out["checks"].items():
        print(f"# check {key}: {'PASS' if ok else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))


def run_all(args, manifest):
    """Every workload in its own child process; a table of the results."""
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in manifest[group]]
    results = {}
    status = 0
    for w in manifest["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.steps:
            cmd += ["--steps", str(args.steps)]
        proc = subprocess.run(cmd, text=True, capture_output=True)
        print(f"## {w['name']} (exit {proc.returncode})")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            status = 1
            continue
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not results[w["name"]]["correct"]
    width = max(len(n) for n in names)
    print("\n" + " " * width + "".join(f"{w:>17}" for w in results))
    units = {m["name"]: m["unit"] for m in manifest[group]}
    for n in names:
        row = "".join(f"{r['metrics'][n]['value']:>17.6g}" for r in results.values())
        print(f"{n:<{width}}{row}  {units[n]}")
    print(" " * width + "".join(
        f"{'correct' if r['correct'] else 'INCORRECT':>17}" for r in results.values()))
    sys.exit(status)


def main(argv=None):
    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads)
    mode.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="cap the samples per trajectory (smoke runs)")
    args = ap.parse_args(argv)
    if args.all:
        run_all(args, manifest)
    else:
        run_one(args, manifest)


if __name__ == "__main__":
    main()
