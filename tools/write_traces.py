"""Write the closed-loop trace, set-up reports and certificate of every shipped scenario.

    python tools/write_traces.py OUT_DIR [SCENARIO ...] [--src DIR]

For each scenario (all shipped ones by default) it runs

    flatpwa simulate --config <scenario>.yaml --out OUT_DIR/<scenario> --budget-ms 1e9
    flatpwa enumerate --config <scenario>.yaml --out OUT_DIR/<scenario>
    flatpwa bigm --config <scenario>.yaml --out OUT_DIR/<scenario>
    flatpwa certify --config <scenario>.yaml --out OUT_DIR/<scenario>

each in its own process with BLAS pinned to one thread, so that no solve
stops on the clock and the thread count does not change the rounding. The
resulting tree (``trace.csv``, ``summary.json``, ``cells.json``,
``bigm.json`` and ``certificate.json`` per scenario) is what
``tools/compare_traces.py`` compares. ``--src`` runs
the ``flatpwa`` package under DIR, such as another checkout's ``src``,
instead of the one next to this tool.

Exit status: 0 when every scenario wrote its trace and reports, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = (("simulate", "--budget-ms", "1e9"), ("enumerate",), ("bigm",),
            ("certify",))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: every shipped one)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the flatpwa package")
    args = parser.parse_args(argv)
    shipped = args.src / "flatpwa" / "data" / "scenarios"
    names = args.scenarios or sorted(p.stem for p in shipped.glob("*.yaml"))
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()),
               **dict.fromkeys(BLAS_VARS, "1"))
    failed = False
    for name in names:
        for command, *flags in COMMANDS:
            cmd = [sys.executable, "-m", "flatpwa.cli", command,
                   "--config", str(shipped / f"{name}.yaml"),
                   "--out", str(args.out_dir / name), *flags]
            code = subprocess.run(cmd, env=env).returncode
            if code != 0:
                print(f"{name}: flatpwa {command} exited {code}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
