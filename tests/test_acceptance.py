"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 5 includes the assertion that the invariant's final value doubles
over L in {1..8}; the measured growth of lambda_1^+ * vol^(k/n) on this
family is set by volume growth times the decay of lambda_1^+ toward the
cylinder gap, and lands near 1.3x, so that assertion documents a real gap
between the contract and the construction rather than a solver defect.
"""

import math
import time

import numpy as np
import pytest

from confspec.cli import main
from confspec.eigensolve import solve_generalized
from confspec.experiments import (
    covariance_crosscheck,
    convergence_study,
    cylinder_surrogate_study,
    pinocchio_sweep,
    scaling_check,
    validate_sphere,
)
from confspec.geometry import sphere_volume_constant
from confspec.grid import BandedSymmetric
from confspec.operators import (
    conformal_laplacian,
    cylinder_threshold,
    dirac_operator,
    paneitz_operator,
)

L_GRID = [float(x) for x in range(1, 9)]
SWEEP_N = 2000


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.perf_counter()
    rows = {
        "conformal-laplacian": pinocchio_sweep(
            conformal_laplacian(3), L_GRID, N=SWEEP_N, path="intrinsic"
        ),
        "dirac": pinocchio_sweep(dirac_operator(2), L_GRID, N=SWEEP_N, path="intrinsic"),
    }
    return rows, time.perf_counter() - t0


def test_criterion_1_cylinder_thresholds():
    cases = [
        (conformal_laplacian(3), 0.25),
        (conformal_laplacian(4), 1.0),
        (paneitz_operator(5), 1.5625),
        (dirac_operator(2), 0.5),
    ]
    t0 = time.perf_counter()
    reps = 1000
    for _ in range(reps):
        values = [cylinder_threshold(op) for op, _ in cases]
    per_call = (time.perf_counter() - t0) / (reps * len(cases))
    exact = all(v == want for v, (_, want) in zip(values, cases))
    ok = exact and per_call < 1e-3
    _report(1, "cylinder thresholds exact", ok, f"per-call {per_call * 1e6:.2f} us")
    assert exact
    assert per_call < 1e-3


def test_criterion_2_round_sphere_validation():
    t0 = time.perf_counter()
    s3 = validate_sphere(conformal_laplacian(3), N=2000, ell_max=8, tolerance=1e-3)
    s3_time = time.perf_counter() - t0
    dirac = validate_sphere(dirac_operator(2), N=2000, ell_max=5, tolerance=1e-3)
    paneitz = validate_sphere(paneitz_operator(5), N=2000, ell_max=4)
    bottom = paneitz.rows[0]
    paneitz_ok = abs(bottom.computed - 6.5625) <= 1e-2
    ok = s3.passed and s3_time <= 10.0 and dirac.passed and paneitz_ok
    _report(
        2,
        "round-sphere validation",
        ok,
        f"S3 worst {max(r.rel_error for r in s3.rows):.2e} in {s3_time:.1f}s, "
        f"Dirac worst {max(r.rel_error for r in dirac.rows):.2e}, "
        f"Paneitz bottom {bottom.computed:.6f}",
    )
    assert s3.passed and len(s3.rows) == 8
    assert s3_time <= 10.0
    assert dirac.passed  # includes exact multiplicities: no doubler modes
    assert paneitz_ok


def test_criterion_3_exact_scaling_invariance():
    worst = 0.0
    for op in (conformal_laplacian(3), dirac_operator(2), paneitz_operator(5)):
        for c in (0.5, 2.0, 3.0):
            rep = scaling_check(op, c)
            worst = max(worst, rep.eig_rel_err, rep.invariant_rel_err)
            assert rep.passed, (op.kind, c, rep)
    _report(3, "exact scaling invariance", True, f"worst rel err {worst:.2e}")


def test_criterion_4_dual_path_oracle():
    details = []
    ok = True
    for op in (conformal_laplacian(3), dirac_operator(2)):
        for L in (1.0, 2.0, 4.0):
            rows = covariance_crosscheck(op, L, [500, 1000, 2000])
            final_ok = rows[-1].discrepancy <= 1e-3
            ratios_ok = all(r.ratio >= 3.0 for r in rows[1:])
            ok = ok and final_ok and ratios_ok
            details.append(
                f"{op.kind[:3]}/L={L:g}: {rows[-1].discrepancy:.1e} "
                f"ratios {','.join(f'{r.ratio:.1f}' for r in rows[1:])}"
            )
    _report(4, "dual-path oracle", ok, "; ".join(details))
    assert ok


def test_criterion_5_divergence_monotone_and_slope(sweeps):
    rows_by_op, elapsed = sweeps
    ok = elapsed <= 300.0
    details = [f"runtime {elapsed:.0f}s"]
    for kind, rows in rows_by_op.items():
        assert all(r.error is None for r in rows)
        inv = [r.invariant for r in rows]
        vol = [r.volume for r in rows]
        n = 3 if kind == "conformal-laplacian" else 2
        slope = (vol[-1] - vol[0]) / (L_GRID[-1] - L_GRID[0])
        omega = sphere_volume_constant(n)
        increasing = all(b > a for a, b in zip(inv, inv[1:]))
        slope_ok = abs(slope / omega - 1.0) <= 0.10
        residual_ok = all(r.max_residual <= 1e-9 for r in rows)
        ok = ok and increasing and slope_ok and residual_ok
        details.append(
            f"{kind[:3]}: increasing={increasing} slope={slope:.4f} (omega {omega:.4f})"
        )
    _report(5, "divergence: monotone invariant, volume slope", ok, "; ".join(details))
    assert ok


def test_criterion_5_invariant_doubles(sweeps):
    rows_by_op, _ = sweeps
    ratios = {
        kind: rows[-1].invariant / rows[0].invariant for kind, rows in rows_by_op.items()
    }
    ok = all(r >= 2.0 for r in ratios.values())
    _report(
        5,
        "divergence: final invariant >= 2x the L=1 value",
        ok,
        "; ".join(f"{k[:3]}: {v:.3f}x" for k, v in ratios.items()),
    )
    assert ok, (
        "invariant growth over L in {1..8} fell short of 2x: "
        + ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items())
    )


def test_criterion_6_convergence_dichotomy():
    details = []
    ok = True
    sigma_checks = []
    for op in (conformal_laplacian(3), dirac_operator(2)):
        report = convergence_study(op, 1, [2.0, 4.0, 6.0, 8.0, 10.0], N=2000)
        assert len(report.trajectories) >= 1
        for tr in report.trajectories:
            assert tr.flag in ("cauchy", "escape")  # exactly one flag set
            if tr.flag == "cauchy":
                decreasing = all(
                    abs(b) < abs(a) for a, b in zip(tr.diffs, tr.diffs[1:])
                )
                final_ok = abs(tr.diffs[-1]) <= 1e-3
                inside = abs(tr.values[-1]) < report.sigma
                ok = ok and decreasing and final_ok and inside
            else:
                edge = 0.95 * report.sigma
                final = tr.values[-1] if tr.sector == "+" else -tr.values[-1]
                ok = ok and final >= edge
            details.append(f"{op.kind[:3]}{tr.sector}:{tr.flag}")
    surrogate, law_dev = cylinder_surrogate_study(
        [5.0, 10.0, 15.0, 20.0, 25.0, 30.0], N=2000
    )
    ok = ok and law_dev <= 1e-3 and surrogate.flag == "escape"
    details.append(f"cyl law dev {law_dev:.1e} flag={surrogate.flag}")
    _report(6, "convergence dichotomy", ok, "; ".join(details))
    assert ok


def _random_pencil(rng, m, bandwidth):
    bands_a = np.zeros((bandwidth + 1, m))
    bands_a[0] = rng.uniform(-1.0, 1.0, m)
    for d in range(1, bandwidth + 1):
        bands_a[d, : m - d] = rng.uniform(-0.5, 0.5, m - d)
    bands_b = np.zeros((bandwidth + 1, m))
    bands_b[0] = rng.uniform(1.0, 2.0, m)
    for d in range(1, bandwidth + 1):
        bands_b[d, : m - d] = rng.uniform(-0.2, 0.2, m - d)
    return BandedSymmetric(bands_a), BandedSymmetric(bands_b)


def test_criterion_7_solver_integrity():
    rng = np.random.default_rng(20240817)
    sizes = [4000, 2500] + list(
        np.unique(np.rint(np.exp(rng.uniform(math.log(60), math.log(1500), 48))).astype(int))
    )
    sizes = sizes[:50]
    worst_gap = 0.0
    worst_residual = 0.0
    worst_ortho = 0.0
    shift_ok = True
    for idx, m in enumerate(sizes):
        bw = 2 if idx % 3 == 1 else 1
        A, B = _random_pencil(rng, int(m), bw)
        dense = solve_generalized(A, B, count=4, method="dense", seed=idx)
        iterative = solve_generalized(A, B, count=4, method="iterative", seed=idx)
        for a, b in zip(dense, iterative):
            worst_gap = max(worst_gap, abs(a.value - b.value))
        for pair in dense + iterative:
            worst_residual = max(worst_residual, pair.residual)
        for i, a in enumerate(iterative):
            for b in iterative[i + 1 :]:
                worst_ortho = max(worst_ortho, abs(a.vector @ B.matvec(b.vector)))
        if idx % 10 == 0:
            c = 0.4375
            moved = solve_generalized(
                A.add_scaled(B, c), B, count=4, window=(c, c), seed=idx
            )
            base_sorted = sorted(p.value for p in dense)
            for a, b in zip(base_sorted, sorted(p.value for p in moved)):
                shift_ok = shift_ok and abs((b - a) - c) <= 1e-9
    ok = worst_gap <= 1e-8 and worst_residual <= 1e-9 and worst_ortho <= 1e-8 and shift_ok
    _report(
        7,
        "solver integrity (50 seeded pencils)",
        ok,
        f"gap {worst_gap:.1e}, residual {worst_residual:.1e}, "
        f"B-orth {worst_ortho:.1e}, shift {'ok' if shift_ok else 'bad'}",
    )
    assert worst_gap <= 1e-8
    assert worst_residual <= 1e-9
    assert worst_ortho <= 1e-8
    assert shift_ok


def test_criterion_8_reproducibility(tmp_path, capsys):
    cases = [
        ["pinocchio-sweep", "--operator", "dirac", "--L", "1:2:1", "--N", "500",
         "--path", "intrinsic", "--seed", "3"],
        ["validate-sphere", "--operator", "conformal-laplacian", "--n", "3",
         "--N", "600", "--ell-max", "3"],
    ]
    ok = True
    for i, args in enumerate(cases):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}{run}.csv"
            code = main(args + ["--out", str(out)])
            assert code == 0
            csv_bytes = out.read_bytes()
            json_text = (tmp_path / f"{i}{run}.json").read_text().replace(str(out), "OUT")
            outs.append((csv_bytes, json_text))
        ok = ok and outs[0] == outs[1]
    capsys.readouterr()
    _report(8, "byte-identical reruns", ok)
    assert ok
