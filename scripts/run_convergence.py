#!/usr/bin/env python3
"""Eigenvalue trajectories along the nose-length family, the dichotomy flags,
and the exact-cylinder surrogate that pins the (n-2)^2/4 + (pi/T)^2 law.
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
            "convergence",
            "--operator", operator,
            "--n", str(n),
            "--L", "2:10:2",
            "--N", "2000",
            "--out", str(OUT / f"convergence_{operator}.csv"),
        ])
        worst = max(worst, code)
    worst = max(worst, main([
        "convergence",
        "--operator", "conformal-laplacian",
        "--n", "3",
        "--N", "2000",
        "--cylinder-lengths", "5:30:5",
        "--out", str(OUT / "convergence_cylinder_surrogate.csv"),
    ]))
    return worst


if __name__ == "__main__":
    sys.exit(run())
