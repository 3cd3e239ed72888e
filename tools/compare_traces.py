"""Compare the closed-loop traces and set-up reports of two output trees.

    python tools/compare_traces.py DIR_A DIR_B

Each scenario is a subdirectory holding a ``trace.csv``, as written by
``flatpwa simulate --config <scenario>.yaml --out DIR/<scenario>`` (pass
``--budget-ms 1e9`` so that no solve stops on the clock), and optionally the
set-up reports ``cells.json`` and ``bigm.json`` of ``flatpwa enumerate`` and
``flatpwa bigm`` (``tools/write_traces.py`` writes all three). For every
scenario it prints "bit-identical", or the largest |difference| of each
column that moved, the steps whose ``cell_index`` differs and each report
that differs byte for byte or exists in one tree only. The wall-clock
``solver_ms`` column and ``summary.json`` (which holds wall-clock values)
are not compared.

Exit status: 0 when every ``cell_index`` column and every report matches, 1
when one differs or a scenario is missing, has other columns or another
number of steps, and 2 when neither directory holds a trace.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

SKIPPED = {"solver_ms"}
REPORTS = ("cells.json", "bigm.json")


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


def compare_reports(dir_a, dir_b):
    """One line per report that differs or exists in one tree only."""
    lines = []
    for report in REPORTS:
        paths = [d / report for d in (dir_a, dir_b)]
        present = [p.is_file() for p in paths]
        if not any(present):
            continue
        if not all(present):
            lines.append(f"{report} missing in {paths[present.index(False)].parent}")
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
