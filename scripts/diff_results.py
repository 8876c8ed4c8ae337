#!/usr/bin/env python3
"""Largest relative change per column of every results/*.csv against a git
revision (default HEAD).  Rows are matched by position; text columns report
the number of rows that differ.  Run from anywhere inside the repository:

    python scripts/diff_results.py [REV]
"""

import csv
import io
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def rel_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def main(rev: str = "HEAD") -> int:
    for path in sorted((ROOT / "results").glob("*.csv")):
        name = path.relative_to(ROOT).as_posix()
        shown = subprocess.run(["git", "show", f"{rev}:{name}"], cwd=ROOT,
                               capture_output=True, text=True)
        if shown.returncode:
            print(f"{name}: not in {rev}")
            continue
        old = list(csv.DictReader(io.StringIO(shown.stdout)))
        new = list(csv.DictReader(path.open(newline="")))
        if len(old) != len(new):
            print(f"{name}: {len(old)} rows in {rev}, {len(new)} now")
        for col in new[0] if new else []:
            pairs = [(o.get(col, ""), n[col]) for o, n in zip(old, new)]
            try:
                worst = max((rel_change(o, n) for o, n in pairs), default=0.0)
                print(f"{name}  {col}: max rel change {worst:.3g}")
            except ValueError:
                differ = sum(o != n for o, n in pairs)
                print(f"{name}  {col}: {differ} of {len(pairs)} rows differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
