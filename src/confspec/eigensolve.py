"""Symmetric banded generalized eigensolver and spectrum bookkeeping.

``solve_generalized`` solves A x = lambda B x (A symmetric banded, B
symmetric positive definite banded) in one of two ways.

Window solve (``count`` left out, B diagonal): every pair strictly inside a
value window.  This is the route of the radial operators, whose mass is
lumped.  The pencil is scaled to the standard banded problem
T = B^-1/2 A B^-1/2; LAPACK bisection (sbevx, values only) returns exactly
the eigenvalues inside the window, and each vector comes from shifted
inverse iteration on the banded T, started from a seeded vector.

Count solve (``count`` given, any banded B): the ``count`` eigenvalues
nearest a target, by one of

  * dense reduction (m <= 4000): banded Cholesky B = L L^T, dense similarity
    C = L^-1 A L^-T, one Householder tridiagonalization of C, all
    tridiagonal values to pick the index block, vectors of that block only,
    back-transformed through the reflectors and the Cholesky factor;
  * shift-invert Lanczos (any m): one ARPACK call on (A - sigma B)^-1 B with
    a sparse LU of the shifted banded matrix and a deterministically seeded
    start vector; a breakdown or a non-converged call (even one that holds
    enough partial pairs) raises ``SolverConvergenceError``.

Every returned pair is inverse-iteration polished if needed and
B-orthonormalized; residuals ||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||) are
reported per pair and must stay below ``RESIDUAL_TOL`` or, where double
precision cannot certify that, a small multiple of the evaluation floor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from confspec.grid import BandedSymmetric
from confspec.operators import ModeSpec

__all__ = [
    "EigenPair",
    "SpectrumEntry",
    "SpectrumReport",
    "NotPositiveDefiniteError",
    "SolverConvergenceError",
    "solve_generalized",
    "aggregate",
]

DENSE_LIMIT = 4000
_AUTO_ITERATIVE_FROM = 600  # iterative is ~50x faster well below the dense cap
_INVERSE_ITERATIONS = 3  # per window vector; two already reach the residual floor
RESIDUAL_TOL = 1e-9


class NotPositiveDefiniteError(ValueError):
    """B failed its Cholesky factorization; ``pivot_index`` is 0-based."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"mass matrix is not positive definite (pivot {pivot_index})")


class SolverConvergenceError(RuntimeError):
    def __init__(self, achieved_residual: float):
        self.achieved_residual = achieved_residual
        super().__init__(
            f"eigensolver did not converge (best residual {achieved_residual:.3e})"
        )


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


def _cholesky_or_raise(B: BandedSymmetric) -> np.ndarray:
    try:
        return sla.cholesky_banded(B.bands, lower=True)
    except sla.LinAlgError as exc:
        match = re.search(r"(\d+)", str(exc))
        pivot = int(match.group(1)) - 1 if match else -1
        raise NotPositiveDefiniteError(pivot) from exc


def relative_residual(A: BandedSymmetric, B: BandedSymmetric, lam: float, x: np.ndarray) -> float:
    ax = A.matvec(x)
    bx = B.matvec(x)
    denom = np.linalg.norm(ax) + abs(lam) * np.linalg.norm(bx)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(ax - lam * bx) / denom)


def _inf_norm(A: BandedSymmetric) -> float:
    m = A.size
    row = np.abs(A.bands[0]).astype(float)
    for d in range(1, A.bandwidth + 1):
        band = np.abs(A.bands[d, : m - d])
        row[d:] += band
        row[: m - d] += band
    return float(row.max(initial=0.0))


def _residual_floor(A, B, lam: float, x: np.ndarray) -> float:
    """Smallest relative residual certifiable in double precision.

    Even the exact eigenvector, rounded to binary64, carries a residual of
    order eps * (||A|| + |lam| ||B||) ||x||; pencils with a huge spectral
    range (the squared fourth-order operator) sit well above 1e-9."""
    ax = A.matvec(x)
    bx = B.matvec(x)
    denom = np.linalg.norm(ax) + abs(lam) * np.linalg.norm(bx)
    if denom == 0.0:
        return 0.0
    scale = (_inf_norm(A) + abs(lam) * _inf_norm(B)) * np.linalg.norm(x)
    return float(np.finfo(float).eps * scale / denom)


def _b_orthonormalize(B: BandedSymmetric, vectors: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vectors:
        v = v.copy()
        for u in out:
            v -= (u @ B.matvec(v)) * u
        nrm = math.sqrt(max(v @ B.matvec(v), 0.0))
        if nrm == 0.0:
            raise SolverConvergenceError(math.inf)
        out.append(v / nrm)
    return out


def _select_nearest(values: np.ndarray, count: int, window) -> tuple[int, int]:
    """Contiguous index block of the ``count`` eigenvalues nearest the window."""
    if window is None:
        dist = np.abs(values)
    else:
        lo, hi = window
        dist = np.maximum.reduce([lo - values, values - hi, np.zeros_like(values)])
    order = np.argsort(dist, kind="stable")[:count]
    return int(order.min()), int(order.max())


def _dense_path(A, B, count, window):
    m = A.size
    lower = _cholesky_or_raise(B)
    bw = B.bandwidth
    dense = A.to_dense()
    x = sla.solve_banded((bw, 0), lower, dense)
    del dense
    C = sla.solve_banded((bw, 0), lower, x.T)
    del x
    C += C.T
    C *= 0.5
    # one reduction C = Q T Q^T; Q is kept as m - 1 Householder reflectors
    lwork, _ = lapack.dsytrd_lwork(m, lower=1)
    C, d, e, tau, _ = lapack.dsytrd(C, lower=1, lwork=int(lwork), overwrite_a=1)
    all_vals = sla.eigh_tridiagonal(d, e, eigvals_only=True)
    i0, i1 = _select_nearest(all_vals, count, window)
    vals, Z = sla.eigh_tridiagonal(d, e, select="i", select_range=(i0, i1))
    if m > 1:
        # the reflectors of a lower reduction are the QR reflectors of C[1:, :-1]
        refl = C[1:, :-1]
        _, work, _ = lapack.dormqr("L", "N", refl, tau, Z[1:], lwork=-1)
        Z[1:], _, _ = lapack.dormqr("L", "N", refl, tau, Z[1:], lwork=int(work[0]))
    upper = np.zeros_like(lower)
    for k in range(bw + 1):
        upper[bw - k, k:] = lower[k, : m - k]
    vecs = sla.solve_banded((0, bw), upper, Z)
    return list(vals), [vecs[:, j] for j in range(vecs.shape[1])]


def _iterative_path(A, B, count, window, seed):
    center = 0.0 if window is None else 0.5 * (window[0] + window[1])
    v0 = np.random.default_rng(seed).standard_normal(A.size)
    try:
        vals, vecs = spla.eigsh(
            A.to_sparse(), k=count, M=B.to_sparse(), sigma=center, which="LM", v0=v0, tol=0
        )
    except (RuntimeError, ValueError) as exc:  # ArpackNoConvergence is a RuntimeError
        raise SolverConvergenceError(math.inf) from exc
    return list(vals), [vecs[:, j] for j in range(vecs.shape[1])]


def _window_path(A, B, window, seed):
    """Pairs strictly inside the window of a pencil with diagonal B."""
    lo, hi = window
    if not lo < hi:
        return [], []
    m = A.size
    bw = A.bandwidth
    s = 1.0 / np.sqrt(B.bands[0])
    T = A.bands * s  # T = B^-1/2 A B^-1/2 in the same lower band storage
    for k in range(bw + 1):
        T[k, : m - k] *= s[k:]
    vals = sla.eig_banded(T, lower=True, eigvals_only=True, select="v", select_range=(lo, hi))
    vals = vals[(vals > lo) & (vals < hi)]
    if vals.size == 0:
        return [], []
    ab = np.zeros((2 * bw + 1, m))  # full band storage of T for solve_banded
    ab[bw:] = T
    for k in range(1, bw + 1):
        ab[bw - k, k:] = T[k, : m - k]
    # bisection leaves each value within a few eps ||T|| of the eigenvalue; the
    # shift sits that far off it, so T - shift is not exactly singular even
    # where the value is exact (a diagonal T)
    offset = 4.0 * np.finfo(float).eps * _inf_norm(BandedSymmetric(T))
    v0 = np.random.default_rng(seed).standard_normal(m)
    ys: list[np.ndarray] = []
    for lam in vals:
        shifted = ab.copy()
        shifted[bw] -= lam + offset
        y = v0
        for _ in range(_INVERSE_ITERATIONS):
            try:
                y = sla.solve_banded((bw, bw), shifted, y)
            except (sla.LinAlgError, ValueError) as exc:
                raise SolverConvergenceError(math.inf) from exc
            for u in ys:  # keep clustered values from converging to one vector
                y -= (u @ y) * u
            y /= np.linalg.norm(y)
        ys.append(y)
    return list(vals), [s * y for y in ys]


def _polish(A, B, lam, vec):
    for _ in range(2):
        if relative_residual(A, B, lam, vec) <= RESIDUAL_TOL:
            break
        a_sp = A.to_sparse()
        b_sp = B.to_sparse()
        try:
            lu = spla.splu((a_sp - lam * b_sp).tocsc())
            y = lu.solve(b_sp @ vec)
        except RuntimeError:
            break
        nrm = math.sqrt(max(y @ (b_sp @ y), 0.0))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        vec = y / nrm
        lam = float(vec @ (a_sp @ vec)) / float(vec @ (b_sp @ vec))
    return lam, vec


def solve_generalized(
    A: BandedSymmetric,
    B: BandedSymmetric,
    count: int | None = None,
    window: tuple[float, float] | None = None,
    method: str = "auto",
    seed: int = 0,
) -> list[EigenPair]:
    """Eigenpairs of A x = lambda B x, sorted by eigenvalue, each B-normalized
    with its relative residual.

    With ``count`` left out: every pair strictly inside ``window = (lo, hi)``
    (possibly none).  This needs a diagonal B and a window.

    With ``count``: the ``count`` pairs nearest the window (default: nearest
    0).  ``method`` is "dense", "iterative" or "auto"; the dense reduction is
    limited to m <= 4000.
    """
    m = A.size
    if B.size != m:
        raise ValueError("A and B sizes differ")
    if count is None:
        if window is None or np.any(B.bands[1:]):
            raise ValueError("a solve without count needs a window and a diagonal B")
        if method != "auto":
            raise ValueError("method applies to solves with a count")
        _cholesky_or_raise(B)
        vals, vecs = _window_path(A, B, window, seed)
    else:
        vals, vecs = _count_solve(A, B, count, window, method, seed)

    polished = [_polish(A, B, float(v), x) for v, x in zip(vals, vecs)]
    vectors = _b_orthonormalize(B, [x for _, x in polished])
    pairs = []
    worst_excess = 0.0
    worst = 0.0
    for vec in vectors:
        lam = float(vec @ A.matvec(vec)) / float(vec @ B.matvec(vec))
        res = relative_residual(A, B, lam, vec)
        bound = max(RESIDUAL_TOL, 32.0 * _residual_floor(A, B, lam, vec))
        if res > bound:
            worst_excess = max(worst_excess, res / bound)
            worst = max(worst, res)
        pairs.append(EigenPair(value=lam, vector=vec, residual=res))
    if worst_excess > 1.0:
        raise SolverConvergenceError(worst)
    pairs.sort(key=lambda pr: pr.value)
    return pairs


def _count_solve(A, B, count, window, method, seed):
    m = A.size
    if count < 1:
        raise ValueError("count must be at least 1")
    count = min(count, m)
    if method == "auto":
        method = "iterative" if m > _AUTO_ITERATIVE_FROM else "dense"
    if method == "iterative" and count >= m - 1:
        method = "dense"  # ARPACK needs count < m - 1
    if method == "dense":
        if m > DENSE_LIMIT:
            raise ValueError(f"dense path is limited to m <= {DENSE_LIMIT}")
        return _dense_path(A, B, count, window)
    if method == "iterative":
        _cholesky_or_raise(B)
        return _iterative_path(A, B, count, window, seed)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    mode: ModeSpec
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Multiplicity-weighted union of per-mode spectra.

    ``lambda_1_plus`` is the smallest eigenvalue above the kernel tolerance
    and ``lambda_1_minus`` the largest below its negative; either is None
    when that side of the spectrum is empty.
    """

    entries: tuple[SpectrumEntry, ...]
    lambda_1_plus: float | None
    lambda_1_minus: float | None
    kernel_tolerance: float

    def lambda_plus(self, j: int) -> float | None:
        """j-th positive eigenvalue counted with multiplicity (j >= 1)."""
        seen = 0
        for entry in self.entries:
            if entry.value > self.kernel_tolerance:
                seen += entry.multiplicity
                if seen >= j:
                    return entry.value
        return None

    def lambda_minus(self, j: int) -> float | None:
        seen = 0
        for entry in reversed(self.entries):
            if entry.value < -self.kernel_tolerance:
                seen += entry.multiplicity
                if seen >= j:
                    return entry.value
        return None

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)


def _entry_value_residual(item) -> tuple[float, float]:
    if isinstance(item, EigenPair):
        return item.value, item.residual
    if isinstance(item, tuple):
        return float(item[0]), float(item[1])
    return float(item), 0.0


def aggregate(
    per_mode: list[tuple[ModeSpec, list]],
    kernel_tolerance: float | None = None,
) -> SpectrumReport:
    """Merge per-mode eigenvalue lists into one sorted, multiplicity-tagged
    spectrum and extract lambda_1^+ / lambda_1^-.

    Items may be floats, (value, residual) tuples or EigenPair objects.
    The kernel tolerance defaults to 1e-8 times the spectral scale.
    """
    entries = []
    for mode, items in per_mode:
        for item in items:
            value, residual = _entry_value_residual(item)
            entries.append(
                SpectrumEntry(
                    value=value,
                    mode=mode,
                    multiplicity=mode.multiplicity,
                    residual=residual,
                )
            )
    entries.sort(key=lambda e: e.value)
    if kernel_tolerance is None:
        scale = max((abs(e.value) for e in entries), default=0.0)
        kernel_tolerance = 1e-8 * scale
    lam_plus = next((e.value for e in entries if e.value > kernel_tolerance), None)
    lam_minus = next(
        (e.value for e in reversed(entries) if e.value < -kernel_tolerance), None
    )
    return SpectrumReport(
        entries=tuple(entries),
        lambda_1_plus=lam_plus,
        lambda_1_minus=lam_minus,
        kernel_tolerance=kernel_tolerance,
    )
