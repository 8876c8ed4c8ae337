#!/usr/bin/env python3
"""Largest relative change per column of every results/*.csv against a git
revision (default HEAD).  Rows are matched by position; text columns report
the number of rows that differ.  Run from anywhere inside the repository:

    python scripts/diff_results.py [REV]

Exits 1 when a CSV is not in REV or its header or row count changed, so a
regeneration that drops rows or columns does not pass unnoticed.
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
    status = 0
    for path in sorted((ROOT / "results").glob("*.csv")):
        name = path.relative_to(ROOT).as_posix()
        shown = subprocess.run(["git", "show", f"{rev}:{name}"], cwd=ROOT,
                               capture_output=True, text=True)
        if shown.returncode:
            print(f"{name}: not in {rev}")
            status = 1
            continue
        old_reader = csv.DictReader(io.StringIO(shown.stdout))
        new_reader = csv.DictReader(path.open(newline=""))
        old, new = list(old_reader), list(new_reader)
        if old_reader.fieldnames != new_reader.fieldnames:
            print(f"{name}: header {old_reader.fieldnames} in {rev}, {new_reader.fieldnames} now")
            status = 1
        if len(old) != len(new):
            print(f"{name}: {len(old)} rows in {rev}, {len(new)} now")
            status = 1
        for col in new_reader.fieldnames or []:
            pairs = [(o.get(col, ""), n[col]) for o, n in zip(old, new)]
            try:
                worst = max((rel_change(o, n) for o, n in pairs), default=0.0)
                print(f"{name}  {col}: max rel change {worst:.3g}")
            except ValueError:
                differ = sum(o != n for o, n in pairs)
                print(f"{name}  {col}: {differ} of {len(pairs)} rows differ")
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
