"""Experiment drivers: sphere validation, nose-length sweeps, eigenvalue
convergence along the family, dual-path cross-checks and scaling checks.

The sweep experiment tracks the scale-invariant product
lambda_1^+ * vol^(k/n) while the cylindrical nose grows; the theory predicts
this diverges through volume growth, with lambda_1^+ pinned near (or inside)
the cylinder gap (-sigma, sigma).

Every nose-length experiment takes its assembly path through
``resolve_path``, the one place the path "auto" is resolved: intrinsic for
a kind that has that path, covariance otherwise.
"""

from __future__ import annotations

import itertools
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
)
from confspec.grid import (
    MIN_NODES, BandedSymmetric, RadialGrid, assemble_weak_form, make_grid, quadrature_points,
)
from confspec.operators import (
    ModeSpec,
    OperatorKind,
    RowRecord,
    covariance_record,
    cylinder_threshold,
    intrinsic_assemble,
    intrinsic_record,
    mode_groups,
    sphere_level,
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
    "check_scaling_factor",
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
    extrapolated_limit: float  # the law fit's s, or the last value without one
    law_fit: dict[str, float] | None


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
    """Validate one nose length (``profile_L``'s rule) and pick and validate
    its assembly path.

    This is the one place "auto" is resolved: to the intrinsic path where
    ``OPERATORS`` gives the kind one and to the covariance path otherwise,
    whatever L is, so that a sweep or a trajectory sees one discretization
    and its successive values one O(h^2) bias."""
    if not (math.isfinite(L) and L >= 1.0):
        raise ValueError(f"nose length L must be finite and at least 1, got {L:g}")
    if path == "auto":
        path = "intrinsic" if op.intrinsic else "covariance"
    if path == "intrinsic":
        if not op.intrinsic:
            raise ValueError(f"intrinsic {op.label} assembly is not supported")
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


def arclength_grid(profile: ConformalProfile, N: int) -> RadialGrid:
    """Uniform arclength grid on ``profile.arclength_nodes``."""
    return RadialGrid(
        nodes=profile.arclength_nodes(N), coordinate_kind="arclength",
        span=profile.total_arclength(),
    )


def nose_resolving_grid(
    profile: ConformalProfile, N: int, exponent: float = 1.0
) -> RadialGrid:
    """Polar image of ``profile.arclength_nodes``, possibly graded.

    Node spacing is dt/F, so the nose is resolved geometrically (ratio
    e^(T/(N+1)) where F = 1/r) and the refinement family scales smoothly
    with N.  ``exponent`` > 1 shifts resolution from the round part toward
    the blowup point; the dual-path cross-check uses it to keep the two
    discretizations' error constants apart."""
    nodes = profile.r_of_arclength(profile.arclength_nodes(N, exponent))
    return RadialGrid(nodes=nodes, coordinate_kind="polar", span=math.pi)


def _collect_modes(
    op: OperatorKind, record: RowRecord, bar: float, seed: int, lowest: int | None = None
) -> tuple[list[tuple[ModeSpec, list[EigenPair]]], int]:
    """Solve angular modes until the mode bottom clears the truncation bar.

    Each mode is one windowed solve for every eigenvalue with |lambda| below
    the bar, or with ``lowest`` = k for its k lowest positive ones (a Dirac
    mode's with their mirrors); an empty window means the mode bottom lies
    above the bar.  Both give the same bottom on every operator here: the
    scalar pencils are congruent to positive definite round operators, and
    a Dirac spectrum is symmetric.  Every mode assembles from the row's
    ``record``, on either path.

    With ``lowest`` = 1 (a sweep row, which reports lambda_1^+ alone) a mode
    can matter only through a value below ``best``, the row's lowest
    positive value so far, once its group already has a bottom under the
    bar: the row then goes on to the next group whatever this mode holds.
    Such a mode is solved on (-best, best) and returns no pair when it
    cannot set lambda_1^+; the window stays symmetric, so a Dirac mode keeps
    its chiral half.  A group's first mode keeps (-bar, bar), which decides the group's
    bottom, so the modes solved and lambda_1^+ are the same as with every
    mode on (-bar, bar)."""
    per_mode = []
    n_modes = 0
    best = bar
    for group in mode_groups(op):
        bottom = math.inf
        for mode in group:
            assembled = intrinsic_assemble(record, mode)
            cap = best if lowest == 1 and bottom < bar else bar
            pairs = eigensolve.solve_generalized(
                assembled.A, assembled.B, window=(-cap, cap), seed=seed, lowest=lowest
            )
            per_mode.append((mode, pairs))
            n_modes += 1
            bottom = min([bottom] + [abs(p.value) for p in pairs])
            best = min([best] + [p.value for p in pairs if p.value > 0.0])
        if bottom > bar:
            break
        if n_modes >= MODE_CAP:
            raise ModeCapError(
                f"mode cap reached after {n_modes} angular modes: the mode "
                f"bottom {bottom:.6g} is still below the truncation bar {bar:.6g}"
            )
    return per_mode, n_modes


def _spectrum_for(
    op: OperatorKind, L: float, N: int, path: str, ceiling: float, seed: int,
    lowest: int | None = None,
) -> tuple[SpectrumReport, int, ConformalProfile, RadialGrid]:
    """Spectrum of one nose length, and the polar grid its volume is read on.

    Both paths start from the profile's arclength nodes.  The intrinsic
    path assembles on them, and its record's one arclength inverse also
    gives the polar grid; the covariance path assembles on their polar
    image.  ``lowest`` is passed to every mode's solve (see
    ``_collect_modes``)."""
    profile = profile_L(op.n, L)
    path = resolve_path(op, L, path)
    if path == "intrinsic":
        record = intrinsic_record(op, profile, arclength_grid(profile, N))
        grid = RadialGrid(nodes=record.r_nodes, coordinate_kind="polar", span=math.pi)
    else:
        grid = nose_resolving_grid(profile, N)
        record = covariance_record(op, profile, grid)
    bar = TRUNCATION_FACTOR * ceiling
    per_mode, n_modes = _collect_modes(op, record, bar, seed, lowest)
    return eigensolve.aggregate(per_mode), n_modes, profile, grid


def _sweep_row(op: OperatorKind, L: float, N: int, path: str, seed: int) -> SweepRow:
    """One sweep row.  It reports lambda_1^+ alone, so each mode is solved
    for its lowest positive pair only, not for every pair below the bar."""
    sigma = cylinder_threshold(op)
    try:
        # the last argument is lowest = 1
        report, n_modes, profile, grid = _spectrum_for(op, L, N, path, 2.0 * sigma, seed, 1)
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
    if N < MIN_NODES:  # up front: a row records a ValueError as its own failure
        raise ValueError("node count too small")
    for L in L_grid:
        resolve_path(op, L, path)  # validate conditioning limits up front
    return [_sweep_row(op, L, N, path, seed) for L in L_grid]


# ---------------------------------------------------------------------------
# round-sphere validation


def _sphere_ladder(
    op: OperatorKind, ell_max: int
) -> tuple[list[tuple[str, float, int]], float]:
    """Closed-form round S^n ladder: (label, eigenvalue, multiplicity) of each
    checked level, and the truncation bar halfway between the top checked
    level and the next one.

    The levels are ``sphere_level``'s: j = 0..min(7, ell_max) for a scalar
    kind, and for a spinor kind both signs of m = 0..min(5, ell_max)."""
    spinor = op.spinor
    top = min(5 if spinor else 7, ell_max)
    levels = [sphere_level(op, j) for j in range(top + 2)]
    rows = [
        (f"{op.kind} m={j} sign={sign}" if spinor else f"{op.kind} j={j}", sign * value, mult)
        for j, (value, mult) in enumerate(levels[:-1])
        for sign in ((1, -1) if spinor else (1,))
    ]
    return rows, 0.5 * (levels[top][0] + levels[top + 1][0])


def validate_sphere(
    op: OperatorKind, N: int = 2000, ell_max: int = 8, tolerance: float = 1e-3, seed: int = 0
) -> ValidationReport:
    """Compare the computed round-sphere spectrum against the exact ladders.

    The spectrum comes from the sweep's own mode loop on the covariance path
    with the unit factor: one window solve per angular mode, the truncation
    bar halfway between the top checked level and the next one.  Each
    computed eigenvalue counts towards the nearest checked level with its
    mode's multiplicity, and a row reports the summed multiplicity and the
    value furthest from the exact one (NaN for a level nothing reached).
    Scalar kinds check the first ``min(8, ell_max + 1)`` levels, Dirac the
    levels +-(n/2 + m) for m <= min(5, ell_max); a missing or doubled mode
    shows as a wrong multiplicity.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be at least 0, got {ell_max}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    checked, bar = _sphere_ladder(op, ell_max)
    record = covariance_record(op, constant_profile(1.0, n=op.n), make_grid("polar", N))
    per_mode, _ = _collect_modes(op, record, bar, seed)
    levels = np.array([value for _, value, _ in checked])
    found: list[list] = [[] for _ in checked]
    for entry in eigensolve.aggregate(per_mode).entries:
        found[int(np.argmin(np.abs(levels - entry.value)))].append(entry)
    rows = []
    for (label, analytic, expected), entries in zip(checked, found):
        values = [e.value for e in entries]
        worst = max(values, key=lambda v: abs(v - analytic), default=math.nan)
        rel = abs(worst - analytic) / abs(analytic)
        mult = sum(e.multiplicity for e in entries)
        rows.append(ValidationRow(label, worst, analytic, rel, mult, expected))
    passed = all(
        r.rel_error <= tolerance and r.multiplicity == r.expected_multiplicity
        for r in rows
    )
    return ValidationReport(rows=tuple(rows), tolerance=tolerance, passed=passed)


# ---------------------------------------------------------------------------
# convergence along the family (the dichotomy experiment)


# the law fit's bracket grows to at most 2^64 (L_3 - L_1); a root further
# out means the data barely decay faster than the law's limit allows
_LAW_FIT_DOUBLINGS = 64


def _law_fit(L_values, values) -> dict[str, float] | None:
    """The law v = s + C/(L + c)^2 through the last three points, as
    {"s", "C", "c"}, or None when there are fewer points or no root.

    With u_i = 1/(L_i + c)^2 the law is linear in s and C, so c solves
    (u_1 - u_2)/(u_2 - u_3) = (v_1 - v_2)/(v_2 - v_3).  For L_1 < L_2 < L_3
    the left side, written without cancellation, falls from +inf at
    c = -L_1 to (L_2 - L_1)/(L_3 - L_2) as c grows, so there is one root
    exactly when the right side exceeds that limit.  It is found by
    bisection: an end doubles until it brackets the root, and the bracket
    is halved until it is one ulp wide."""
    if len(values) < 3:
        return None
    (L1, L2, L3), (v1, v2, v3) = L_values[-3:], values[-3:]
    if not (L1 < L2 < L3 and v2 != v3):
        return None
    target = (v1 - v2) / (v2 - v3)
    if not target > (L2 - L1) / (L3 - L2):  # a NaN has no root either
        return None

    def ratio(c):
        return ((L2 - L1) * (L1 + L2 + 2 * c) * (L3 + c) ** 2
                / ((L3 - L2) * (L2 + L3 + 2 * c) * (L1 + c) ** 2))

    lo, hi = -L1, L3 - L1
    for _ in range(_LAW_FIT_DOUBLINGS):
        if ratio(hi) < target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return None
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if ratio(mid) < target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    c = hi
    C = (v2 - v3) * (L2 + c) ** 2 * (L3 + c) ** 2 / ((L3 - L2) * (L2 + L3 + 2 * c))
    return {"s": v3 - C / (L3 + c) ** 2, "C": C, "c": c}


def _make_trajectory(sector: str, L_values, values, sigma: float) -> Trajectory:
    diffs = tuple(b - a for a, b in zip(values[:-1], values[1:]))
    threshold = sigma * (1.0 - ESCAPE_FRACTION)
    final = values[-1]
    escaped = final >= threshold if sector == "+" else final <= -threshold
    flag = "escape" if escaped else "cauchy"
    fit = _law_fit(L_values, values)
    return Trajectory(
        sector=sector,
        L_values=tuple(L_values),
        values=tuple(values),
        diffs=diffs,
        flag=flag,
        extrapolated_limit=values[-1] if fit is None else fit["s"],
        law_fit=fit,
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
    gap edge (escape).  ``path`` is resolved per length by ``resolve_path``,
    whose "auto" picks one path for the whole trajectory."""
    if j < 1:
        raise ValueError(f"eigenvalue index j must be at least 1, got {j}")
    if list(L_grid) != sorted(L_grid):
        raise ValueError("L grid must be increasing")
    sigma = cylinder_threshold(op)
    ceiling = 2.0 * sigma * j
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
    conditions and the lumped mass of the production operators.  The
    conformal-Laplacian bottom follows
    (n-2)^2/4 + (pi/T)^2; returns the trajectory and the worst deviation
    from that law."""
    sigma = cylinder_threshold(operators.conformal_laplacian(n))
    values = []
    worst = 0.0
    for T in T_grid:
        grid = make_grid("arclength", N, length=float(T))
        ones = np.ones(quadrature_points(grid, pinned=True).size)
        A, M = assemble_weak_form(grid, ones, sigma * ones, ones, pinned=True)
        B = BandedSymmetric.from_diagonal(operators._lumped(M))
        pairs = eigensolve.solve_generalized(A, B, count=1, seed=seed)
        lam = pairs[0].value
        law = sigma + (math.pi / T) ** 2
        worst = max(worst, abs(lam - law))
        values.append(lam)
    return _make_trajectory("+", list(T_grid), values, sigma), worst


# ---------------------------------------------------------------------------
# dual-path cross-check and exact scaling


def covariance_crosscheck(
    op: OperatorKind, L: float, N_grid: list[int], seed: int = 0
) -> list[CrosscheckRow]:
    """Max relative eigenvalue discrepancy between the covariance and
    intrinsic assemblies of the same metric, on a shared refinement family.
    L = 0 checks the round sphere.  A row's ratio is the previous discrepancy
    over its own: inf when only its own is 0, nan on the first row or when
    both are 0."""
    if not op.intrinsic:
        raise ValueError(f"cross-check needs both paths; the {op.label} has only one")
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise ValueError(f"N grid must be strictly increasing, got {list(N_grid)}")
    # the two lowest modes (l = 0 and 1, or k = +-1/2); a spinor mode
    # compares an even number of eigenvalues so that its near-symmetric
    # +- pairs stay balanced across paths
    modes = list(itertools.islice(itertools.chain.from_iterable(mode_groups(op)), 2))
    count = 4 if op.spinor else 3
    if L == 0.0:
        # t = r on the unit sphere, so both paths share the nodes
        profile, exponent = constant_profile(1.0, op.n), 1.0
    else:
        resolve_path(op, L, "covariance")
        # deliberately different refinement families (graded vs uniform in
        # arclength) so the two paths' O(h^2) constants cannot cancel and
        # the discrepancy itself decays at second order
        profile, exponent = profile_L(op.n, L), 2.0
    rows: list[CrosscheckRow] = []
    prev = math.nan
    for N in N_grid:
        cov_record = covariance_record(op, profile, nose_resolving_grid(profile, N, exponent))
        int_record = intrinsic_record(op, profile, arclength_grid(profile, N))
        worst = 0.0
        for mode in modes:
            cov = intrinsic_assemble(cov_record, mode)
            intr = intrinsic_assemble(int_record, mode)
            ev_cov = eigensolve.solve_generalized(cov.A, cov.B, count=count, seed=seed)
            ev_int = eigensolve.solve_generalized(intr.A, intr.B, count=count, seed=seed)
            for a, b in zip(ev_cov, ev_int):
                worst = max(worst, abs(a.value - b.value) / max(abs(a.value), 1e-30))
        if rows and worst:
            ratio = prev / worst
        elif rows and prev:
            ratio = math.inf
        else:
            ratio = math.nan
        rows.append(CrosscheckRow(N=N, discrepancy=worst, ratio=ratio))
        prev = worst
    return rows


# The scaling law holds at any resolution; the grid size only sets how much
# double-precision solver noise enters the comparison, and the squared
# fourth-order pencil accumulates it like N^4, so its grid stays small.  Keyed
# by operator order.
_SCALING_CHECK_N = {1: 600, 2: 600, 4: 32}


def check_scaling_factor(op: OperatorKind, c: float) -> None:
    """Raise ``ValueError`` unless the constant factor c is positive and
    c^k and c^n lie in [1e-100, 1e100].

    The scaled mass is c^k times the base one and the volume c^n times,
    and the check compares quantities of both against the unscaled ones;
    every operator passes at both ends of this range.  Inverse iteration
    no longer bounds it: it scales each iterate into range before its
    B-product, so a mass near 1e150 or 1e-150 no longer overflows or
    underflows there."""
    if not c > 0.0:  # NaN too
        raise ValueError(f"scaling factor must be positive, got {c}")
    if not max(op.order, op.n) * abs(math.log10(c)) <= 100.0:
        raise ValueError(
            f"scaling factor {c} is out of range: c^{op.order} and c^{op.n} must lie "
            "in [1e-100, 1e100]"
        )


def scaling_check(op: OperatorKind, c: float, seed: int = 0) -> ScalingReport:
    """Machine-level check of the covariance law for constant factors.

    Scaling the metric by c^2 multiplies the mass by exactly c^k, so every
    eigenvalue scales by c^-k and lambda_1^+ * vol^(k/n) is unchanged.
    """
    check_scaling_factor(op, c)
    N = _SCALING_CHECK_N[op.order]
    k = op.order
    mode = next(mode_groups(op))[0]
    grid = make_grid("polar", N)
    one = constant_profile(1.0, op.n)
    base = intrinsic_assemble(covariance_record(op, one, grid), mode)
    count = 4
    ev_base = eigensolve.solve_generalized(base.A, base.B, count=count, seed=seed)

    def scaling_error(pairs):
        """Worst relative departure of ``pairs`` from c^-k times the base."""
        return max(
            abs(s.value - b.value * c**-k) / abs(b.value) / c**-k
            for s, b in zip(pairs, ev_base)
            if b.value != 0.0
        )

    scaled_mass = base.B.scaled(c**k)
    ev_scaled = eigensolve.solve_generalized(base.A, scaled_mass, count=count, seed=seed)
    eig_rel_err = scaling_error(ev_scaled)

    pointwise = intrinsic_assemble(covariance_record(op, constant_profile(c, op.n), grid), mode)
    ev_point = eigensolve.solve_generalized(pointwise.A, pointwise.B, count=count, seed=seed)
    pointwise_rel_err = scaling_error(ev_point)

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
