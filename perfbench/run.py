#!/usr/bin/env python3
"""confspec benchmark: time one workload from outside the package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; confspec is imported from its ``src/``.
Workloads (see perfbench/NOTES.md for why each exists and what it should
move): ``sweep``, ``long-nose``, ``pencils``, ``checks``.

Each run is a closed loop with one caller: operations run in one worker
process, back to back, with the BLAS thread count fixed at min(2, nproc).
Set-up time is sampled in the measuring process and in probe processes
started before and after it, and reported as their median.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates traced and
untraced passes and reports per-layer self times and counts.  Lines before
the last are a human-readable report with the environment block; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "long-nose", "pencils", "checks")
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_PROBES = 3  # probe processes before the measuring one, and as many after
HELD_OUT_SEED = 9001  # never used while tuning; gain claims re-check on it
RUN_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _child_env(blas_threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONFSPEC_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def _worker(mode: str, args, deadline: float, blas_threads: int = BLAS_THREADS):
    """Start one worker, wait for it, return (start time, its JSON result)."""
    cmd = [sys.executable, str(WORKER), mode, args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(blas_threads), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} operations, need more than {TAIL_BEYOND} for a tail")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of all order statistics (Harrell & Davis, Biometrika 69, 1982).

    The sample median is one or two order statistics.  The sweeps split
    50/50 into fast conformal-Laplacian and slow Dirac rows, so there it is
    the slowest sample of one cluster averaged with the fastest of the
    other; this estimate weighs every sample near the middle instead.
    """
    ordered = np.sort(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(weights @ ordered)


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "confspec" / "__init__.py").is_file():
        raise BenchError(f"no confspec sources under {ROOT / 'src'}")

    def probe() -> float:
        start, res = _worker("probe", args, deadline)
        return res["ready"] - start

    # probes on both sides of the measured run sample set-up in more than
    # one stretch of the host's speed, which drifts over tens of seconds
    setups = [probe() for _ in range(SETUP_PROBES)]
    start, res = _worker("run", args, deadline)
    setups.append(res["ready"] - start)
    setups += [probe() for _ in range(SETUP_PROBES)]

    env = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, **res["env"],
           **_source_identity(), "held_out_seed": HELD_OUT_SEED}
    if args.workload == "pencils" and args.trace == 1:
        _, base = _worker("baseline", args, deadline, blas_threads=1)
        env["pencils_pass_1thread_s"] = base["pass_s"]

    failed = len(res["failures"])
    report = {"workload": args.workload, "seed": args.seed, "env": env,
              "pass_s": res["pass_s"],
              "fail_frac": failed / res["attempted"], "failures": res["failures"],
              **res["stats"]}
    if args.trace:
        metrics = {k: (v, "s" if k.endswith("_s") else
                       "ratio" if k.endswith("_per_assembly") else "count", "")
                   for k, v in res["layers"].items()}
        report["spans_file"] = res["spans_file"]
    else:
        pooled = [t for times in res["latencies"].values() for t in times]
        tail, pct = _tail(pooled)
        samples = len(pooled)
        report.update(op_tail_percentile=pct, op_samples=samples)
        metrics = {
            "wall_s": (statistics.median(res["pass_s"]), "s",
                       f"median of {len(res['pass_s'])} passes"),
            "op_p50_s": (_harrell_davis_median(pooled), "s",
                         f"Harrell-Davis median of {samples} ops"),
            "op_tail_s": (tail, "s", f"p{pct:.1f} of {samples} ops"),
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", "measuring process"),
        }
    # figures that cannot be end-to-end metrics: 0 at the seed, or checks-only
    shown = {"fail_frac": (report["fail_frac"], "1", f"{failed} of {res['attempted']} ops")}
    for key in ("ladder_rel_err", "dualpath_disc"):
        if key in res["stats"]:
            shown[key] = (res["stats"][key], "1", "worst relative error")
    for name, (value, unit, note) in {**metrics, **shown}.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    print("report " + json.dumps(report, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main() -> int:
    # SIGTERM unwinds like an interrupt, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
