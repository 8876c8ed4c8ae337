#!/usr/bin/env python3
"""Largest relative change per column of every results/*.csv, and per
numeric ``summary`` field of every results/*.json sidecar, against a git
revision (default HEAD).  Rows are matched by position; text columns report
the number of rows that differ, and a text or boolean summary field (a
dichotomy flag, ``pass``) reports whether it differs.  Each sidecar's
``config`` block is compared key by key: keys only in REV, keys only now,
and keys whose values changed.  Run from anywhere inside the repository:

    python scripts/diff_results.py [REV]

Exits 1 when a file is not in REV or its CSV header, row count, config keys
or summary fields changed, so a regeneration that drops rows, columns,
options or fields does not pass unnoticed.
"""

import csv
import io
import json
import math
import numbers
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def rel_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def show(rev: str, name: str) -> str | None:
    """The file ``name`` as of ``rev``, or None when it is not there."""
    shown = subprocess.run(["git", "show", f"{rev}:{name}"], cwd=ROOT,
                           capture_output=True, text=True)
    return None if shown.returncode else shown.stdout


def diff_csv(name: str, old_text: str, path: pathlib.Path, rev: str) -> int:
    status = 0
    old_reader = csv.DictReader(io.StringIO(old_text))
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


def flatten(summary: dict, prefix: str = "summary") -> dict:
    """Dotted field names to leaf values; nested dicts (flags and limits per
    sector) become one field per key."""
    out = {}
    for key, value in summary.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}.{key}"))
        else:
            out[f"{prefix}.{key}"] = value
    return out


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def diff_config(name: str, old: dict, new: dict, rev: str) -> int:
    only_old, only_new = sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())
    if only_old:
        print(f"{name}: config keys only in {rev}: {only_old}")
    if only_new:
        print(f"{name}: config keys only now: {only_new}")
    for key in sorted(old.keys() & new.keys()):
        if old[key] != new[key]:
            print(f"{name}  config.{key}: {json.dumps(old[key])} in {rev}, "
                  f"{json.dumps(new[key])} now")
    return 1 if only_old or only_new else 0


def diff_summary(name: str, old: dict, new: dict, rev: str) -> int:
    old, new = flatten(old), flatten(new)
    status = 0
    if old.keys() != new.keys():
        print(f"{name}: summary fields {sorted(old)} in {rev}, {sorted(new)} now")
        status = 1
    for field in sorted(old.keys() & new.keys()):
        a, b = old[field], new[field]
        if is_number(a) and is_number(b):
            print(f"{name}  {field}: rel change {rel_change(a, b):.3g}")
        elif a == b:
            print(f"{name}  {field}: same ({json.dumps(b)})")
        else:
            print(f"{name}  {field}: differs ({json.dumps(a)} in {rev}, {json.dumps(b)} now)")
    return status


def diff_sidecar(name: str, old_text: str, path: pathlib.Path, rev: str) -> int:
    old, new = json.loads(old_text), json.loads(path.read_text())
    return max(
        diff_config(name, old.get("config", {}), new.get("config", {}), rev),
        diff_summary(name, old.get("summary", {}), new.get("summary", {}), rev),
    )


def main(rev: str = "HEAD") -> int:
    status = 0
    paths = sorted((ROOT / "results").glob("*.csv")) + sorted((ROOT / "results").glob("*.json"))
    for path in paths:
        name = path.relative_to(ROOT).as_posix()
        old_text = show(rev, name)
        if old_text is None:
            print(f"{name}: not in {rev}")
            status = 1
            continue
        differ = diff_csv if path.suffix == ".csv" else diff_sidecar
        status = max(status, differ(name, old_text, path, rev))
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
