#!/usr/bin/env python3
"""The headline sweep: grow the cylindrical nose and track
lambda_1^+ * vol^(k/n) for the conformal Laplacian on S^3 and the Dirac
operator on S^2.  CSVs land in results/.
"""

import os
import pathlib
import sys

from confspec.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path("results")  # relative to ROOT, so sidecars record a portable path


def run() -> int:
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    worst = 0
    for operator, n in (("conformal-laplacian", 3), ("dirac", 2)):
        code = main([
            "pinocchio-sweep",
            "--operator", operator,
            "--n", str(n),
            "--L", "1:8:1",
            "--N", "2000",
            "--path", "intrinsic",
            "--out", str(OUT / f"sweep_{operator}.csv"),
        ])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
