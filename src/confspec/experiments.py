"""Experiment drivers: sphere validation, nose-length sweeps, eigenvalue
convergence along the family, dual-path cross-checks and scaling checks.

The sweep experiment tracks the scale-invariant product
lambda_1^+ * vol^(k/n) while the cylindrical nose grows; the theory predicts
this diverges through volume growth, with lambda_1^+ pinned near (or inside)
the cylinder gap (-sigma, sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from confspec import eigensolve, operators
from confspec.eigensolve import EigenPair, SpectrumReport, SolverConvergenceError
from confspec.geometry import (
    ArclengthInversionError,
    ConformalProfile,
    constant_profile,
    profile_L,
    volume,
    warped_reparametrize,
)
from confspec.grid import RadialGrid, WeakForm1D, assemble_weak_form, make_grid
from confspec.operators import (
    KIND_DIRAC,
    KIND_L,
    KIND_PANEITZ,
    IntrinsicRecord,
    ModeSpec,
    OperatorKind,
    covariance_reduce,
    cylinder_threshold,
    intrinsic_assemble,
    intrinsic_record,
    make_mode,
    paneitz_constants,
)

__all__ = [
    "ModeCapError",
    "NoPositiveEigenvalueError",
    "SweepRow",
    "ValidationRow",
    "ValidationReport",
    "Trajectory",
    "ConvergenceReport",
    "CrosscheckRow",
    "ScalingReport",
    "pinocchio_sweep",
    "validate_sphere",
    "convergence_study",
    "cylinder_surrogate_study",
    "covariance_crosscheck",
    "scaling_check",
]

COVARIANCE_KL_LIMIT = 16.0  # mass condition number ~ e^(k L)
INTRINSIC_L_LIMIT = 30.0
ESCAPE_FRACTION = 0.05  # escape band: |lambda| >= sigma * (1 - ESCAPE_FRACTION)
TRUNCATION_FACTOR = 1.5
MODE_CAP = 64


class ModeCapError(RuntimeError):
    """Angular modes still reached below the truncation bar at MODE_CAP."""


class NoPositiveEigenvalueError(RuntimeError):
    """The solved spectrum of a sweep row holds no positive eigenvalue."""


# failures of a run whose configuration was valid; the CLI exits 2 on these
RUN_FAILURES = (
    SolverConvergenceError, ArclengthInversionError, ModeCapError, NoPositiveEigenvalueError
)


@dataclass(frozen=True)
class SweepRow:
    L: float
    lambda_1_plus: float
    volume: float
    invariant: float
    sigma: float
    n_modes_used: int
    max_residual: float
    error: str | None = None


@dataclass(frozen=True)
class ValidationRow:
    label: str
    computed: float
    analytic: float
    rel_error: float
    multiplicity: int
    expected_multiplicity: int


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class Trajectory:
    sector: str  # "+" or "-"
    L_values: tuple[float, ...]
    values: tuple[float, ...]
    diffs: tuple[float, ...]
    flag: str  # "cauchy" | "escape"
    extrapolated_limit: float


@dataclass(frozen=True)
class ConvergenceReport:
    sigma: float
    trajectories: tuple[Trajectory, ...]


@dataclass(frozen=True)
class CrosscheckRow:
    N: int
    discrepancy: float
    ratio: float  # vs previous row; nan on the first


@dataclass(frozen=True)
class ScalingReport:
    operator: str
    c: float
    eig_rel_err: float
    pointwise_rel_err: float
    invariant_rel_err: float
    volume_rel_err: float
    passed: bool


def resolve_path(op: OperatorKind, L: float, path: str) -> str:
    """Pick and validate the assembly path for one nose length."""
    if path == "auto":
        if op.kind == KIND_PANEITZ:
            path = "covariance"
        else:
            path = "intrinsic" if L > 4.0 else "covariance"
    if path == "intrinsic":
        if op.kind == KIND_PANEITZ:
            raise ValueError("intrinsic Paneitz assembly is not supported")
        if L > INTRINSIC_L_LIMIT:
            raise ValueError(f"intrinsic path is limited to L <= {INTRINSIC_L_LIMIT}")
    elif path == "covariance":
        if op.order * L > COVARIANCE_KL_LIMIT:
            raise ValueError(
                f"covariance path ill-conditioned: k*L = {op.order * L:.1f} "
                f"exceeds {COVARIANCE_KL_LIMIT}"
            )
    else:
        raise ValueError(f"unknown path {path!r}")
    return path


def _snap_to_kinks(t: np.ndarray, profile: ConformalProfile) -> np.ndarray:
    """Move the nearest node onto each arclength position where the profile
    is only C2, so no quadrature cell straddles a derivative jump."""
    if not profile.kink_radii:
        return t
    t = t.copy()
    for tk in profile.arclength_of_r(np.asarray(profile.kink_radii)):
        if t[0] < tk < t[-1]:
            t[int(np.argmin(np.abs(t - tk)))] = tk
    return np.unique(t)


def arclength_grid(profile: ConformalProfile, N: int) -> RadialGrid:
    """Uniform arclength grid with nodes snapped onto the profile kinks."""
    T = profile.total_arclength()
    t = _snap_to_kinks(T * np.arange(1, N + 1) / (N + 1), profile)
    return RadialGrid(nodes=t, coordinate_kind="arclength", span=T)


def nose_resolving_grid(
    profile: ConformalProfile, N: int, exponent: float = 1.0
) -> RadialGrid:
    """Polar image of a (possibly graded) arclength grid.

    Node spacing is dt/F, so the nose is resolved geometrically (ratio
    e^(T/(N+1)) where F = 1/r) and the refinement family scales smoothly
    with N.  ``exponent`` > 1 shifts resolution from the round part toward
    the blowup point; the dual-path cross-check uses it to keep the two
    discretizations' error constants apart."""
    T = profile.total_arclength()
    t = T * (np.arange(1, N + 1) / (N + 1)) ** exponent
    nodes = profile.r_of_arclength(_snap_to_kinks(t, profile))
    return RadialGrid(nodes=nodes, coordinate_kind="polar", span=math.pi)


def _mode_indices(op: OperatorKind):
    if op.kind == KIND_DIRAC:
        k = 0.5
        while True:
            yield (k, -k)
            k += 1.0
    else:
        ell = 0
        while True:
            yield (float(ell),)
            ell += 1


def _collect_modes(
    op: OperatorKind,
    grid: RadialGrid,
    profile: ConformalProfile,
    record: IntrinsicRecord | None,
    ceiling: float,
    seed: int,
) -> tuple[list[tuple[ModeSpec, list[EigenPair]]], int]:
    """Solve angular modes until the mode bottom clears the truncation bar.

    Each mode is one windowed solve for every eigenvalue with |lambda| below
    the bar; an empty window means the mode bottom lies above it.  Modes
    assemble from the row's intrinsic ``record``, or on the covariance path
    when it is None."""
    per_mode = []
    n_modes = 0
    bar = TRUNCATION_FACTOR * ceiling
    for group in _mode_indices(op):
        bottom = math.inf
        for index in group:
            mode = make_mode(op, index)
            if record is None:
                assembled = covariance_reduce(op, profile, mode, grid)
            else:
                assembled = intrinsic_assemble(record, mode)
            pairs = eigensolve.solve_generalized(
                assembled.A, assembled.B, window=(-bar, bar), seed=seed
            )
            per_mode.append((mode, pairs))
            n_modes += 1
            bottom = min([bottom] + [abs(p.value) for p in pairs])
        if bottom > bar:
            break
        if n_modes >= MODE_CAP:
            raise ModeCapError(
                f"mode cap reached after {n_modes} angular modes: the mode "
                f"bottom {bottom:.6g} is still below the truncation bar {bar:.6g}"
            )
    return per_mode, n_modes


def _spectrum_for(
    op: OperatorKind, L: float, N: int, path: str, ceiling: float, seed: int
) -> tuple[SpectrumReport, int, ConformalProfile, RadialGrid]:
    """Spectrum of one nose length on its polar grid, which both paths share:
    the intrinsic path warps it through the forward map t(r)."""
    profile = profile_L(op.n, L)
    path = resolve_path(op, L, path)
    grid = nose_resolving_grid(profile, N)
    record = None
    if path == "intrinsic":
        record = intrinsic_record(op, warped_reparametrize(profile, grid), grid)
    per_mode, n_modes = _collect_modes(op, grid, profile, record, ceiling, seed)
    return eigensolve.aggregate(per_mode), n_modes, profile, grid


def _sweep_row(op: OperatorKind, L: float, N: int, path: str, seed: int) -> SweepRow:
    sigma = cylinder_threshold(op)
    try:
        report, n_modes, profile, grid = _spectrum_for(op, L, N, path, 2.0 * sigma, seed)
        lam = report.lambda_1_plus
        if lam is None:
            raise NoPositiveEigenvalueError(f"no positive eigenvalue at L={L:g}")
        vol = volume(profile, grid)
        inv = lam * vol ** (op.order / op.n)
        return SweepRow(
            L=L,
            lambda_1_plus=lam,
            volume=vol,
            invariant=inv,
            sigma=sigma,
            n_modes_used=n_modes,
            max_residual=report.max_residual,
        )
    except (*RUN_FAILURES, ValueError) as exc:
        return SweepRow(
            L=L,
            lambda_1_plus=math.nan,
            volume=math.nan,
            invariant=math.nan,
            sigma=sigma,
            n_modes_used=0,
            max_residual=math.nan,
            error=str(exc),
        )


def pinocchio_sweep(
    op: OperatorKind,
    L_grid: list[float],
    N: int = 2000,
    path: str = "auto",
    seed: int = 0,
) -> list[SweepRow]:
    """One row per nose length: lambda_1^+, volume and the invariant
    lambda_1^+ * vol^(k/n).  Per-row failures are recorded in the row."""
    if list(L_grid) != sorted(L_grid):
        raise ValueError("L grid must be increasing")
    for L in L_grid:
        resolve_path(op, L, path)  # validate conditioning limits up front
    return [_sweep_row(op, L, N, path, seed) for L in L_grid]


# ---------------------------------------------------------------------------
# round-sphere validation


def _scalar_level_value(op: OperatorKind, j: int) -> float:
    n = op.n
    mu = j * (j + n - 1)  # round Laplacian eigenvalue of total degree j
    if op.kind == KIND_L:
        return mu + n * (n - 2) / 4.0
    a, q_const = paneitz_constants(n)
    return mu * mu + a * mu + (n - 4) / 2.0 * q_const


def validate_sphere(
    op: OperatorKind, N: int = 2000, ell_max: int = 8, tolerance: float = 1e-3, seed: int = 0
) -> ValidationReport:
    """Compare computed round-sphere ladders against the exact spectra.

    Scalar kinds: the first ``min(8, ell_max + 1)`` distinct eigenvalues with
    their total multiplicities.  Dirac: levels +-(m+1) for m <= ell_max with
    multiplicity 2(m+1), checking each contributing mode appears exactly once
    (no spurious doubled modes).
    """
    grid = make_grid("polar", N)
    profile = constant_profile(1.0, n=op.n)
    rows: list[ValidationRow] = []
    if op.kind == KIND_DIRAC:
        m_max = min(ell_max, 5)
        per_mode = {}
        for twok in range(1, 2 * m_max + 2, 2):
            for k in (twok / 2.0, -twok / 2.0):
                mode = make_mode(op, k)
                assembled = covariance_reduce(op, profile, mode, grid)
                count = 2 * (m_max + 1 - int(abs(k)))
                pairs = eigensolve.solve_generalized(
                    assembled.A, assembled.B, count=count, seed=seed
                )
                per_mode[k] = [p.value for p in pairs]
        for m in range(m_max + 1):
            contributing = [k for k in per_mode if abs(k) <= m + 0.5]
            for sign in (1.0, -1.0):
                target = sign * (m + 1)
                got = []
                for k in contributing:
                    vals = [v for v in per_mode[k] if abs(v - target) < 0.5]
                    if len(vals) != 1:
                        # missing or doubled level in this mode
                        got = None
                        break
                    got.append(vals[0])
                if got is None:
                    rows.append(
                        ValidationRow(
                            label=f"dirac m={m} sign={int(sign)}",
                            computed=math.nan,
                            analytic=target,
                            rel_error=math.inf,
                            multiplicity=-1,
                            expected_multiplicity=2 * (m + 1),
                        )
                    )
                    continue
                worst = max(got, key=lambda v: abs(v - target))
                rows.append(
                    ValidationRow(
                        label=f"dirac m={m} sign={int(sign)}",
                        computed=worst,
                        analytic=target,
                        rel_error=abs(worst - target) / abs(target),
                        multiplicity=len(got),
                        expected_multiplicity=2 * (m + 1),
                    )
                )
    else:
        j_max = min(7, ell_max)
        per_mode = {}
        for ell in range(j_max + 1):
            mode = make_mode(op, float(ell))
            assembled = covariance_reduce(op, profile, mode, grid)
            count = j_max + 1 - ell
            pairs = eigensolve.solve_generalized(
                assembled.A, assembled.B, count=count, seed=seed
            )
            per_mode[ell] = ([p.value for p in pairs], mode.multiplicity)
        for j in range(j_max + 1):
            analytic = _scalar_level_value(op, j)
            computed = []
            mult = 0
            expected_mult = 0
            for ell in range(j + 1):
                vals, m_ell = per_mode[ell]
                computed.append(vals[j - ell])
                mult += m_ell
                expected_mult += operators.mode_multiplicity(op, ell)
            worst = max(computed, key=lambda v: abs(v - analytic))
            rows.append(
                ValidationRow(
                    label=f"{op.kind} j={j}",
                    computed=worst,
                    analytic=analytic,
                    rel_error=abs(worst - analytic) / abs(analytic),
                    multiplicity=mult,
                    expected_multiplicity=expected_mult,
                )
            )
    passed = all(
        r.rel_error <= tolerance and r.multiplicity == r.expected_multiplicity
        for r in rows
    )
    return ValidationReport(rows=tuple(rows), tolerance=tolerance, passed=passed)


# ---------------------------------------------------------------------------
# convergence along the family (the dichotomy experiment)


def _aitken_limit(values: list[float]) -> float:
    if len(values) >= 3:
        d1 = values[-2] - values[-3]
        d2 = values[-1] - values[-2]
        denom = d1 - d2
        if denom != 0.0 and abs(d2) < abs(d1):
            return values[-1] + d2 * d2 / denom
    return values[-1]


def _make_trajectory(sector: str, L_values, values, sigma: float) -> Trajectory:
    diffs = tuple(b - a for a, b in zip(values[:-1], values[1:]))
    threshold = sigma * (1.0 - ESCAPE_FRACTION)
    final = values[-1]
    escaped = final >= threshold if sector == "+" else final <= -threshold
    flag = "escape" if escaped else "cauchy"
    return Trajectory(
        sector=sector,
        L_values=tuple(L_values),
        values=tuple(values),
        diffs=diffs,
        flag=flag,
        extrapolated_limit=_aitken_limit(list(values)),
    )


def convergence_study(
    op: OperatorKind,
    j: int,
    L_grid: list[float],
    N: int = 2000,
    path: str = "auto",
    seed: int = 0,
) -> ConvergenceReport:
    """Trajectories L -> lambda_j^+- with the dichotomy flag per sector:
    either the values settle (cauchy) or they end up pinned at the cylinder
    gap edge (escape)."""
    if list(L_grid) != sorted(L_grid):
        raise ValueError("L grid must be increasing")
    if path == "auto":
        # one discretization for the whole trajectory, so successive
        # differences see a consistent O(h^2) bias
        path = "covariance" if op.kind == KIND_PANEITZ else "intrinsic"
    sigma = cylinder_threshold(op)
    ceiling = 2.0 * sigma * max(1, j)
    plus: list[float] = []
    minus: list[float] = []
    plus_ok = minus_ok = True
    for L in L_grid:
        report = _spectrum_for(op, L, N, path, ceiling, seed)[0]
        vp = report.lambda_plus(j)
        vm = report.lambda_minus(j)
        plus_ok = plus_ok and vp is not None
        minus_ok = minus_ok and vm is not None
        plus.append(vp if vp is not None else math.nan)
        minus.append(vm if vm is not None else math.nan)
    trajectories = []
    if plus_ok:
        trajectories.append(_make_trajectory("+", L_grid, plus, sigma))
    if minus_ok:
        trajectories.append(_make_trajectory("-", L_grid, minus, sigma))
    return ConvergenceReport(sigma=sigma, trajectories=tuple(trajectories))


def cylinder_surrogate_study(
    T_grid: list[float], N: int = 2000, n: int = 3, seed: int = 0
) -> tuple[Trajectory, float]:
    """Exact-cylinder check: h == 1 on a length-T interval with zero boundary
    conditions.  The conformal-Laplacian bottom follows
    (n-2)^2/4 + (pi/T)^2; returns the trajectory and the worst deviation
    from that law."""
    sigma = (n - 2) ** 2 / 4.0
    values = []
    worst = 0.0
    for T in T_grid:
        grid = make_grid("arclength", N, length=float(T))
        form = WeakForm1D(
            p=lambda t: np.ones_like(t),
            q=lambda t: np.full_like(t, sigma),
            w=lambda t: np.ones_like(t),
            essential_left=True,
            essential_right=True,
        )
        A, M = assemble_weak_form(form, grid)
        pairs = eigensolve.solve_generalized(A, M, count=1, seed=seed)
        lam = pairs[0].value
        law = sigma + (math.pi / T) ** 2
        worst = max(worst, abs(lam - law))
        values.append(lam)
    return _make_trajectory("+", list(T_grid), values, sigma), worst


# ---------------------------------------------------------------------------
# dual-path cross-check and exact scaling


def _crosscheck_modes(op: OperatorKind):
    if op.kind == KIND_DIRAC:
        return (0.5, -0.5)
    return (0.0, 1.0)


def covariance_crosscheck(
    op: OperatorKind, L: float, N_grid: list[int], count: int = 3, seed: int = 0
) -> list[CrosscheckRow]:
    """Max relative eigenvalue discrepancy between the covariance and
    intrinsic assemblies of the same metric, on a shared refinement family."""
    if op.kind == KIND_PANEITZ:
        raise ValueError("cross-check needs both paths; Paneitz has only one")
    if op.kind == KIND_DIRAC and count % 2:
        count += 1  # keep the near-symmetric +- pairs balanced across paths
    resolve_path(op, L, "covariance")
    profile = profile_L(op.n, L) if L > 0 else constant_profile(1.0, op.n)
    rows: list[CrosscheckRow] = []
    prev = math.nan
    for N in N_grid:
        if profile.L > 0:
            # deliberately different refinement families (graded vs uniform
            # in arclength) so the two paths' O(h^2) constants cannot cancel
            # and the discrepancy itself decays at second order
            cov_grid = nose_resolving_grid(profile, N, exponent=2.0)
            int_grid = arclength_grid(profile, N)
        else:
            cov_grid = make_grid("polar", N)
            int_grid = cov_grid
        record = intrinsic_record(op, warped_reparametrize(profile, int_grid), int_grid)
        worst = 0.0
        for index in _crosscheck_modes(op):
            mode = make_mode(op, index)
            cov = covariance_reduce(op, profile, mode, cov_grid)
            intr = intrinsic_assemble(record, mode)
            ev_cov = eigensolve.solve_generalized(cov.A, cov.B, count=count, seed=seed)
            ev_int = eigensolve.solve_generalized(intr.A, intr.B, count=count, seed=seed)
            for a, b in zip(ev_cov, ev_int):
                worst = max(worst, abs(a.value - b.value) / max(abs(a.value), 1e-30))
        rows.append(
            CrosscheckRow(N=N, discrepancy=worst, ratio=prev / worst if rows else math.nan)
        )
        prev = worst
    return rows


def scaling_check(op: OperatorKind, c: float, N: int | None = None, seed: int = 0) -> ScalingReport:
    """Machine-level check of the covariance law for constant factors.

    Scaling the metric by c^2 multiplies the mass by exactly c^k, so every
    eigenvalue scales by c^-k and lambda_1^+ * vol^(k/n) is unchanged.  The
    law holds at any resolution; N only sets how much double-precision
    solver noise enters the comparison, and the squared fourth-order pencil
    accumulates it like N^4, so the Paneitz default stays small.
    """
    if c <= 0.0:
        raise ValueError("scaling factor must be positive")
    if N is None:
        N = 32 if op.kind == KIND_PANEITZ else 600
    k = op.order
    index = 0.5 if op.kind == KIND_DIRAC else 0.0
    mode = make_mode(op, index)
    grid = make_grid("polar", N)
    one = constant_profile(1.0, op.n)
    base = covariance_reduce(op, one, mode, grid)
    count = 4
    ev_base = eigensolve.solve_generalized(base.A, base.B, count=count, seed=seed)

    scaled_mass = base.B.scaled(c**k)
    ev_scaled = eigensolve.solve_generalized(base.A, scaled_mass, count=count, seed=seed)
    eig_rel_err = max(
        abs(s.value - b.value * c**-k) / abs(b.value) / c**-k
        for s, b in zip(ev_scaled, ev_base)
        if b.value != 0.0
    )

    pointwise = covariance_reduce(op, constant_profile(c, op.n), mode, grid)
    ev_point = eigensolve.solve_generalized(pointwise.A, pointwise.B, count=count, seed=seed)
    pointwise_rel_err = max(
        abs(s.value - b.value * c**-k) / abs(b.value) / c**-k
        for s, b in zip(ev_point, ev_base)
        if b.value != 0.0
    )

    lam_base = next(p.value for p in ev_base if p.value > 0)
    lam_scaled = next(p.value for p in ev_scaled if p.value > 0)
    vol_base = volume(one, grid)
    vol_scaled = c**op.n * vol_base
    inv_base = lam_base * vol_base ** (k / op.n)
    inv_scaled = lam_scaled * vol_scaled ** (k / op.n)
    invariant_rel_err = abs(inv_scaled - inv_base) / inv_base

    vol_quad = volume(constant_profile(c, op.n), grid)
    volume_rel_err = abs(vol_quad - vol_scaled) / vol_scaled

    passed = (
        eig_rel_err <= 1e-12
        and invariant_rel_err <= 1e-12
        and pointwise_rel_err <= 1e-12
        and volume_rel_err <= 1e-12
    )
    return ScalingReport(
        operator=op.kind,
        c=c,
        eig_rel_err=eig_rel_err,
        pointwise_rel_err=pointwise_rel_err,
        invariant_rel_err=invariant_rel_err,
        volume_rel_err=volume_rel_err,
        passed=passed,
    )
