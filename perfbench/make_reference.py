#!/usr/bin/env python3
"""Record the sweep reference values that the sweep and long-nose workloads
check against: lambda_1^+, volume and the invariant per (operator, L) at
N=2000 on the intrinsic path.

    python3 perfbench/make_reference.py > perfbench/reference.json

Run it only on a commit whose discretization is the accepted one; the
recorded values are what later speed-ups must reproduce to ``RTOL``.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from confspec.experiments import pinocchio_sweep  # noqa: E402
from confspec.operators import OperatorKind  # noqa: E402

from worker import LONG_NOSE_L, N, SWEEP_L, SWEEP_OPERATORS  # noqa: E402

# N=2000 and N=4000 agree to ~1.2e-6 in lambda_1^+ on these rows, so 1e-5 is
# above the discretization error and far below a wrong mode or geometry.
RTOL = 1e-5


def main() -> None:
    rows = {}
    for operator, n in SWEEP_OPERATORS:
        L_values = sorted(set(SWEEP_L) | set(LONG_NOSE_L))
        swept = pinocchio_sweep(OperatorKind(operator, n), [float(L) for L in L_values],
                                N=N, path="intrinsic", seed=0)
        rows[operator] = {
            str(L): {"lambda1plus": r.lambda_1_plus, "volume": r.volume,
                     "invariant": r.invariant}
            for L, r in zip(L_values, swept)
        }
    json.dump({"rtol": RTOL, "N": N, "path": "intrinsic", "rows": rows},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
