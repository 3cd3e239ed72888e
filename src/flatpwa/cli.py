"""Command-line entry point.

Subcommands: enumerate, certify, simulate, bigm, verify-clf. Each reads a
scenario config, runs the corresponding pipeline stage and writes reports
(JSON) and traces (CSV) into --out.

Exit codes: 0 success, 2 infeasible controller, 3 certification budget
exceeded, 4 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_scenario, parse_max_ms
from .controllers import verify_clf
from .errorbounds import GridBudgetExceeded
from .pipeline import (build_pipeline, clf_spec, run_certification, run_scenario,
                       run_taylor_table, summarize)
from .polytope import vertices
from .simulate import ControllerInfeasible, trace_csv

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_enumerate(pipe, out_dir, args):
    d = pipe.ensure_cells()
    cells = []
    for piece in d.pieces:
        entry = {
            "alpha": [int(a) for a in piece.alpha],
            "F": piece.F.tolist(),
            "f": piece.f.tolist(),
            "Theta": piece.polytope.A.tolist(),
            "theta": piece.polytope.b.tolist(),
        }
        if args.vertices:
            entry["vertex_count"] = len(vertices(piece.polytope))
        cells.append(entry)
    report = {
        "plant": pipe.cfg.plant,
        "num_cells": len(d),
        "workspace_rows": pipe.workspace.num_rows,
        "cells": cells,
    }
    _write_json(out_dir / "cells.json", report)
    print(f"{pipe.cfg.plant}: {len(d)} non-empty cells "
          f"-> {out_dir / 'cells.json'}")
    return EXIT_OK


def cmd_certify(pipe, out_dir, args):
    try:
        cert = run_certification(pipe)
    except GridBudgetExceeded as e:
        print(f"certification budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    report = {"plant": pipe.cfg.plant, "grid_certificate": cert.to_json()}
    if pipe.cfg.plant == "aircraft":
        table, lips = run_taylor_table(pipe)
        report["lipschitz"] = {k: float(v) for k, v in lips.items()}
        report["taylor_cells"] = [{
            "pattern": list(t.pattern),
            "center": t.center.tolist(),
            "radius": t.radius,
            "eps_taylor": t.eps_taylor,
            "eps_vertices": t.eps_vertices,
            "total": t.total,
        } for t in table]
    _write_json(out_dir / "certificate.json", report)
    eb = ", ".join(f"{v:.4f}" for v in cert.eps_bar)
    print(f"{pipe.cfg.plant}: eps_bar = [{eb}] over {cert.grid_points} grid "
          f"points in {cert.wall_time_s:.1f} s -> {out_dir / 'certificate.json'}")
    return EXIT_OK


def cmd_simulate(pipe, out_dir, args):
    try:
        result, _ = run_scenario(pipe)
    except ControllerInfeasible as e:
        print(f"controller infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.infeasible_at is not None:
        print(f"controller infeasible at t={result.infeasible_at:.3f}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(trace_csv(result.records, pipe.plant))
    summary = summarize(result, pipe)
    _write_json(out_dir / "summary.json", summary)
    print(f"{pipe.cfg.plant}/{pipe.cfg.controller}: {summary['steps']} steps, "
          f"{summary['input_violations']} input violations, "
          f"{summary['state_violations']} state violations, "
          f"mean solve {summary['mean_solver_ms']:.1f} ms "
          f"-> {out_dir / 'trace.csv'}")
    return EXIT_OK


def cmd_bigm(pipe, out_dir, args):
    big_m = pipe.ensure_big_m()
    cells = pipe.ensure_union().stacked.slices
    report = {
        "plant": pipe.cfg.plant,
        "policy": pipe.cfg.big_m,
        "per_cell": big_m.per_cell.tolist(),
        "per_row": [big_m.per_row[c].tolist() for c in cells],
    }
    _write_json(out_dir / "bigm.json", report)
    vals = ", ".join(f"{v:.4f}" for v in big_m.per_cell)
    print(f"{pipe.cfg.plant}: per-cell big-M = [{vals}] -> {out_dir / 'bigm.json'}")
    return EXIT_OK


def cmd_verify_clf(pipe, out_dir, args):
    report = verify_clf(clf_spec(pipe, gain_required=False), pipe.plant.A,
                        pipe.plant.B)
    _write_json(out_dir / "clf.json", report)
    lmi = report["lmi_max_eig"]
    print(f"{pipe.cfg.plant}: CLF check pass={report['pass']} "
          f"(pd_min_eig={report['pd_min_eig']:.4g}, "
          f"lmi_max_eig={'unchecked' if lmi is None else f'{lmi:.4g}'})")
    return EXIT_OK if report["pass"] else EXIT_INFEASIBLE


COMMANDS = {
    "enumerate": cmd_enumerate,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "bigm": cmd_bigm,
    "verify-clf": cmd_verify_clf,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 4), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="flatpwa",
        description="PWA constraint certification and MI-constrained control "
                    "for feedback-linearized flat systems")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="scenario YAML")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--budget-ms", type=float, default=None,
                        help="override the per-solve time budget")
    parser.add_argument("--vertices", action="store_true",
                        help="include per-cell vertex counts in enumerate")
    try:
        args = parser.parse_args(argv)
        cfg = load_scenario(args.config)
        if args.budget_ms is not None:
            cfg.max_ms = parse_max_ms(args.budget_ms, "--budget-ms")
        pipe = build_pipeline(cfg)
        return COMMANDS[args.command](pipe, Path(args.out), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
