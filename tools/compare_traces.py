"""Compare the closed-loop traces and set-up reports of two output trees.

    python tools/compare_traces.py DIR_A DIR_B

Each scenario is a subdirectory holding a ``trace.csv`` and optionally a
``summary.json``, as written by ``flatpwa simulate --config <scenario>.yaml
--out DIR/<scenario>`` (pass ``--budget-ms 1e9`` so that no solve stops on
the clock), and optionally the set-up reports ``cells.json`` and
``bigm.json`` of ``flatpwa enumerate`` and ``flatpwa bigm`` and the
``certificate.json`` of ``flatpwa certify`` (``tools/write_traces.py``
writes all five). For every scenario it prints "bit-identical", or the
largest |difference| of each column that moved, the steps whose
``cell_index`` differs, each set-up report that differs byte for byte, the
fields of the summary and the certificate whose values differ, and each
report that exists in one tree only. The wall clock is not compared: the
``solver_ms`` column, the summary's ``mean_solver_ms`` and
``max_solver_ms`` and the certificate's ``wall_time_s``.

Exit status: 0 when every ``cell_index`` column and every report matches, 1
when one differs or a scenario is missing, has other columns or another
number of steps, and 2 when neither directory holds a trace.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

SKIPPED = {"solver_ms"}
REPORTS = ("cells.json", "bigm.json", "certificate.json", "summary.json")
BY_FIELD = {"summary.json", "certificate.json"}
CLOCK_FIELDS = {"wall_time_s", "mean_solver_ms", "max_solver_ms"}


def _read(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def compare(path_a, path_b):
    """(lines naming what moved, whether the traces disagree on their cells
    or shape)."""
    cols, rows_a = _read(path_a)
    cols_b, rows_b = _read(path_b)
    if cols != cols_b:
        return [f"columns differ: {cols} vs {cols_b}"], True
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} vs {len(rows_b)} steps"], True
    lines = []
    mismatch = False
    for j, name in enumerate(cols):
        a = [r[j] for r in rows_a]
        b = [r[j] for r in rows_b]
        if name in SKIPPED or a == b:
            continue
        if name == "cell_index":
            steps = [k for k, (x, y) in enumerate(zip(a, b)) if x != y]
            lines.append(f"cell_index differs at {len(steps)} steps "
                         f"(first: {steps[:10]})")
            mismatch = True
        else:
            delta = max(abs(float(x) - float(y)) for x, y in zip(a, b))
            lines.append(f"{name} max |delta| {delta:.3g}")
    return lines, mismatch


def _leaves(value, path=""):
    """The leaves of a JSON report by dotted path (a list is one leaf), each
    as its JSON text, so that -0.0 and 0.0 differ."""
    if isinstance(value, dict):
        return {k: v for key, sub in value.items()
                for k, v in _leaves(sub, f"{path}{key}.").items()}
    return {path[:-1]: json.dumps(value)}


def _moved_fields(path_a, path_b):
    """The fields of two JSON reports that differ, but for the wall clock's."""
    a, b = (_leaves(json.loads(p.read_text())) for p in (path_a, path_b))
    return sorted(k for k in a.keys() | b.keys()
                  if k.rsplit(".", 1)[-1] not in CLOCK_FIELDS and a.get(k) != b.get(k))


def compare_reports(dir_a, dir_b):
    """One line per report that differs or exists in one tree only: the
    summary and the certificate field by field, the others byte for byte."""
    lines = []
    for report in REPORTS:
        paths = [d / report for d in (dir_a, dir_b)]
        present = [p.is_file() for p in paths]
        if not any(present):
            continue
        if not all(present):
            lines.append(f"{report} missing in {paths[present.index(False)].parent}")
        elif report in BY_FIELD:
            fields = _moved_fields(*paths)
            if fields:
                lines.append(f"{report} differs in {', '.join(fields)}")
        elif paths[0].read_bytes() != paths[1].read_bytes():
            lines.append(f"{report} differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    names = sorted({p.parent.name for d in (args.dir_a, args.dir_b)
                    for p in d.glob("*/trace.csv")})
    if not names:
        print("no <scenario>/trace.csv under either directory", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        paths = [d / name / "trace.csv" for d in (args.dir_a, args.dir_b)]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            lines, mismatch = [f"missing {', '.join(missing)}"], True
        else:
            lines, mismatch = compare(*paths)
            reports = compare_reports(*(p.parent for p in paths))
            lines += reports
            mismatch |= bool(reports)
        print(f"{name}: {'; '.join(lines) or 'bit-identical'}")
        failed |= mismatch
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
