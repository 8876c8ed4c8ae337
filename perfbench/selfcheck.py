#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong answers.

    python3 perfbench/selfcheck.py

Runs the first sweep row (conformal Laplacian, L=1) and the first pencil
against the stored reference and criterion 7's bounds, then again with the
reference moved by ten tolerances and with a pencil eigenvalue moved past
the gap bound; exits nonzero unless the true values pass and every moved
one fails.  A move of a tenth of the tolerance must still pass.
"""

import pathlib
import sys
import tempfile

from worker import OUT_DIR, PENCIL_GAP_TOL, SWEEP_L, Pencils, Sweep


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        sweep = Sweep(SWEEP_L, 0, pathlib.Path(workdir))
        _, row = sweep.ops[0]
        want = sweep.reference["conformal-laplacian"]["1"]
        results["sweep row passes against the stored reference"] = row()
        for key in ("lambda1plus", "volume", "invariant"):
            true = want[key]
            want[key] = true * (1.0 + 0.1 * sweep.rtol)
            results[f"sweep row passes with reference {key} moved by 0.1 rtol"] = row()
            want[key] = true * (1.0 + 10.0 * sweep.rtol)
            results[f"sweep row fails with reference {key} moved by 10 rtol"] = not row()
            want[key] = true

    pencils = Pencils(0, None)
    dense, iterative = pencils.ops[0][1], pencils.ops[1][1]
    results["pencil passes, dense then iterative"] = dense() and iterative()
    pencils.dense_values[0][0] += 10.0 * PENCIL_GAP_TOL
    results["pencil fails with a dense value moved by 10 gap bounds"] = not iterative()

    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
