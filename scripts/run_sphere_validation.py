#!/usr/bin/env python3
"""Validate all three operators against the exact round-sphere spectra.

Writes results/validate_<operator>.csv plus JSON sidecars and exits nonzero
if any ladder misses its tolerance.
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
    for operator, n, ell_max in (
        ("conformal-laplacian", 3, 8),
        ("dirac", 2, 5),
        ("paneitz", 5, 4),
    ):
        code = main([
            "validate-sphere",
            "--operator", operator,
            "--n", str(n),
            "--N", "2000",
            "--ell-max", str(ell_max),
            "--out", str(OUT / f"validate_{operator}.csv"),
        ])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
