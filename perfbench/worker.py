"""One benchmark process: set up a workload, then probe, measure or baseline it.

Started by ``run.py`` as ``worker.py MODE WORKLOAD SEED SECONDS TRACE``:

* ``probe``    set up (import, inputs, one warm-up operation) and exit;
* ``run``      set up, then run the workload's passes back to back;
* ``baseline`` set up, then run one untraced pass (run.py starts it with a
  single BLAS thread).

Every mode prints one JSON object on its last stdout line.  confspec is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import math
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import confspec  # noqa: E402

if pathlib.Path(confspec.__file__).resolve().parent != SRC / "confspec":
    sys.exit(f"confspec was imported from {confspec.__file__}, not from {SRC}")

from confspec import cli, eigensolve  # noqa: E402
from confspec.grid import BandedSymmetric  # noqa: E402

from tracing import Tracer  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

N = 2000
SWEEP_OPERATORS = (("conformal-laplacian", 3), ("dirac", 2))
SWEEP_L = (1, 2, 3, 4, 5, 6, 7, 8)
LONG_NOSE_L = (8, 12, 16, 20, 24, 30)
# criterion 7's pencils: many small and mid sizes, whose solves set op_p50_s,
# plus m=2500, whose dense reduction dominates wall_s; a fixed ladder, so
# every seed does the same work
PENCIL_SIZES = tuple(int(m) for m in np.rint(np.geomspace(100, 1000, 24))) + (2500,)
PENCIL_COUNT = 4
PENCIL_GAP_TOL = 1e-8
PENCIL_RESIDUAL_TOL = 1e-9
VALIDATE = (("conformal-laplacian", 3, 8), ("dirac", 2, 5), ("paneitz", 5, 4))
COVARIANCE_L = (1, 2, 4)
COVARIANCE_N_GRID = "500,1000,2000"

# One untraced pass at the seed commit (2 cores, OpenBLAS, 2 threads).  A run
# makes ceil(seconds / this) passes, at least MIN_PASSES, so a parent and a
# change given the same --seconds measure the same work and the same
# percentiles.  Three passes give every operation at least three samples.
NOMINAL_PASS_S = {"sweep": 3.7, "long-nose": 4.0, "pencils": 7.0, "checks": 4.4}
MIN_PASSES = 3


class Cli:
    """Runs ``confspec.cli.main`` as a script would: one command, --out to a file."""

    def __init__(self, workdir: pathlib.Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def __call__(self, args: list[str], name: str):
        """Exit code, CSV rows (header first) and sidecar summary of one command."""
        out = self.workdir / f"{name}.csv"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args + ["--seed", str(self.seed), "--out", str(out)])
        if not out.exists():
            return code, None, None
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        summary = json.loads(out.with_suffix(".json").read_text())["summary"]
        return code, rows, summary


class Sweep:
    """pinocchio-sweep rows, one CLI command per (operator, L), checked
    against values recorded at the seed commit."""

    def __init__(self, L_values, seed, workdir):
        self.cli = Cli(workdir, seed)
        reference = json.loads((pathlib.Path(__file__).parent / "reference.json").read_text())
        self.rtol = reference["rtol"]
        self.reference = reference["rows"]
        self.stats = {}
        self.generated_pencils = 0
        self.ops = [
            (f"{operator} L={L}", partial(self.row, operator, n, L))
            for operator, n in SWEEP_OPERATORS
            for L in L_values
        ]

    def row(self, operator: str, n: int, L: int) -> bool:
        code, rows, summary = self.cli(
            ["pinocchio-sweep", "--operator", operator, "--n", str(n), "--L", str(L),
             "--N", str(N), "--path", "intrinsic"],
            f"sweep_{operator}_{L}",
        )
        if code != 0 or not summary["pass"]:
            return False
        got = dict(zip(rows[0], rows[1]))
        self.stats["modes"] = self.stats.get("modes", 0) + int(got["modes"])
        want = self.reference[operator][str(L)]
        return all(
            math.isclose(float(got[key]), want[key], rel_tol=self.rtol, abs_tol=0.0)
            for key in ("lambda1plus", "volume", "invariant")
        )


def random_pencil(rng, m: int, bandwidth: int):
    """Criterion 7's random symmetric banded pencil with B positive definite."""
    bands_a = np.zeros((bandwidth + 1, m))
    bands_a[0] = rng.uniform(-1.0, 1.0, m)
    for d in range(1, bandwidth + 1):
        bands_a[d, : m - d] = rng.uniform(-0.5, 0.5, m - d)
    bands_b = np.zeros((bandwidth + 1, m))
    bands_b[0] = rng.uniform(1.0, 2.0, m)
    for d in range(1, bandwidth + 1):
        bands_b[d, : m - d] = rng.uniform(-0.2, 0.2, m - d)
    return BandedSymmetric(bands_a), BandedSymmetric(bands_b)


class Pencils:
    """solve_generalized on seeded random banded pencils, dense and iterative,
    held to criterion 7's gap and residual bounds."""

    def __init__(self, seed, _workdir):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pencils = [
            random_pencil(rng, m, 2 if i % 2 else 1) for i, m in enumerate(PENCIL_SIZES)
        ]
        self.generated_pencils = len(self.pencils)
        self.stats = {}
        self.dense_values = {}
        self.ops = [
            (f"{method} m={m}", partial(self.solve, i, method))
            for i, m in enumerate(PENCIL_SIZES)
            for method in ("dense", "iterative")
        ]

    def solve(self, i: int, method: str) -> bool:
        A, B = self.pencils[i]
        pairs = eigensolve.solve_generalized(
            A, B, count=PENCIL_COUNT, method=method, seed=self.seed
        )
        values = [p.value for p in pairs]
        ok = len(pairs) == PENCIL_COUNT and max(p.residual for p in pairs) <= PENCIL_RESIDUAL_TOL
        if method == "dense":
            self.dense_values[i] = values
            return ok
        dense = self.dense_values.get(i)
        return ok and dense is not None and max(
            abs(a - b) for a, b in zip(dense, values)
        ) <= PENCIL_GAP_TOL


class Checks:
    """validate-sphere and covariance-check commands, judged by their exit
    codes and pass flags."""

    def __init__(self, seed, workdir):
        self.cli = Cli(workdir, seed)
        self.stats = {}
        self.generated_pencils = 0
        self.ops = [
            (f"validate-sphere {op}", partial(self.validate, op, n, ell_max))
            for op, n, ell_max in VALIDATE
        ] + [
            (f"covariance-check {op} L={L}", partial(self.covariance, op, L))
            for op in ("conformal-laplacian", "dirac")
            for L in COVARIANCE_L
        ]

    def _worst(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), value)

    def validate(self, operator: str, n: int, ell_max: int) -> bool:
        code, rows, summary = self.cli(
            ["validate-sphere", "--operator", operator, "--n", str(n), "--N", str(N),
             "--ell-max", str(ell_max)],
            f"validate_{operator}",
        )
        if rows is None:
            return False
        self._worst("ladder_rel_err", max(float(r[3]) for r in rows[1:]))
        return code == 0 and summary["pass"]

    def covariance(self, operator: str, L: int) -> bool:
        code, rows, summary = self.cli(
            ["covariance-check", "--operator", operator, "--L", str(L),
             "--N-grid", COVARIANCE_N_GRID],
            f"covariance_{operator}_{L}",
        )
        if rows is None:
            return False
        self._worst("dualpath_disc", float(rows[-1][1]))
        return code == 0 and summary["pass"]


WORKLOADS = {
    "sweep": partial(Sweep, SWEEP_L),
    "long-nose": partial(Sweep, LONG_NOSE_L),
    "pencils": Pencils,
    "checks": Checks,
}


def _openblas_libraries():
    """(library file, config string, threads in effect) for each OpenBLAS
    that numpy and scipy ship."""
    found = []
    site = pathlib.Path(np.__file__).resolve().parent.parent
    for lib_dir in ("numpy.libs", "scipy.libs"):
        for path in sorted((site / lib_dir).glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    found.append([path.name, config().decode(), threads()])
                    break
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas_libraries(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _run_op(label, op) -> bool:
    try:
        return bool(op())
    except Exception:  # a raising operation is a failed one; the loop goes on
        print(f"operation {label!r} raised:", file=sys.stderr)
        traceback.print_exc()
        return False


def measure(workload, name: str, seconds: float, tracer: Tracer | None) -> dict:
    passes = max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[name]))
    pass_s = {True: [], False: []}
    latencies = {label: [] for label, _ in workload.ops}
    failures = []
    attempted = 0
    for p in range(passes):
        traced = tracer is not None and p % 2 == 0
        workload.stats.clear()
        if traced:
            tracer.install(p)
        start = time.perf_counter()
        for label, op in workload.ops:
            t0 = time.perf_counter()
            ok = _run_op(label, op)
            dt = time.perf_counter() - t0
            attempted += 1
            if not ok:
                failures.append(label)
            if not traced:
                latencies[label].append(dt)
        pass_s[traced].append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
    result = {
        "attempted": attempted,
        "failures": failures,
        "pass_s": pass_s[False],
        "latencies": latencies,
        "stats": dict(workload.stats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_passes = len(pass_s[True])
        layers = {k: v / traced_passes for k, v in tracer.layer_totals().items()}
        inputs = layers["operators.assemblies"] + workload.generated_pencils
        layers["eigensolve.solves_per_assembly"] = (
            layers["eigensolve.solves"] / inputs if inputs else 0.0
        )
        layers["experiments.modes"] = workload.stats.get("modes", 0)
        layers["trace.overhead_s"] = (
            statistics.median(pass_s[True]) - statistics.median(pass_s[False])
        )
        result["layers"] = layers
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, trace = argv
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOADS[name](int(seed), pathlib.Path(workdir))
        warm_label, warm_op = workload.ops[0]
        if not _run_op(warm_label, warm_op):
            print(f"warm-up operation {warm_label!r} failed", file=sys.stderr)
            return 1
        ready = time.monotonic()
        if mode == "probe":
            result = {"ready": ready}
        elif mode == "baseline":
            start = time.perf_counter()
            for label, op in workload.ops:
                _run_op(label, op)
            result = {"pass_s": time.perf_counter() - start}
        else:
            tracer = Tracer() if trace == "1" else None
            result = measure(workload, name, float(seconds), tracer)
            result["ready"] = ready
            result["env"] = environment()
            if tracer is not None:
                spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
                tracer.write(spans)
                result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
