#!/usr/bin/env python3
"""Run the mutant list against tier-1: does the suite still have teeth?

Each mutant in ``scripts/mutants.txt`` replaces one exact piece of text in
one file of ``src/``.  For each, this copies the repository's ``src/``,
``tests/``, ``results/``, ``perfbench/`` (whose tracer a test loads) and
``pyproject.toml`` into a fresh temporary directory, applies the mutant
there and runs tier-1 with ``-x`` (criterion 5, the known failure,
deselected).  It prints one line per mutant: "killed" with
the first failing test, or "survived".  The working tree is never touched.

    python scripts/mutants.py                 # every mutant
    python scripts/mutants.py NAME [NAME ...] # just these

Exit status: 0 when every mutant run was killed, 1 when one survived, 2 on a
malformed list (an unknown key, or an ``old`` text that does not occur
exactly once).  A survivor costs a full tier-1 run (about 30 s on 2 cores),
so this is not part of tier-1.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "scripts" / "mutants.txt"
COPIED = ("src", "tests", "results", "perfbench", "pyproject.toml")
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_5_invariant_doubles"
KEYS = ("name", "file", "old", "new", "why")


def read_mutants(path: pathlib.Path = MUTANTS) -> list[dict[str, str]]:
    """The blocks of the list as dicts with every key of ``KEYS``."""
    mutants = []
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    for block in "\n".join(lines).split("\n\n"):
        if not block.strip():
            continue
        fields = {}
        for line in block.strip().splitlines():
            key, sep, value = line.partition(": ")
            if not sep or key not in KEYS or key in fields:
                raise ValueError(f"malformed mutant line {line!r}")
            fields[key] = value
        missing = [k for k in KEYS if k not in fields]
        if missing:
            raise ValueError(f"mutant {fields.get('name')!r} lacks {missing}")
        text = (ROOT / fields["file"]).read_text()
        if text.count(fields["old"]) != 1:
            raise ValueError(
                f"mutant {fields['name']!r}: old text occurs {text.count(fields['old'])} "
                f"times in {fields['file']}, not once"
            )
        mutants.append(fields)
    return mutants


def run_mutant(mutant: dict[str, str]) -> str | None:
    """The first test tier-1 fails on a copy with ``mutant`` applied, or
    None when it passes."""
    with tempfile.TemporaryDirectory(prefix="confspec-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / mutant["file"]
        target.write_text(target.read_text().replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", KNOWN_FAILURE],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(names: list[str]) -> int:
    try:
        mutants = read_mutants()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        first = run_mutant(mutant)
        if first is None:
            survived += 1
            print(f"survived  {mutant['name']}: {mutant['why']}", flush=True)
        else:
            print(f"killed    {mutant['name']} by {first}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
