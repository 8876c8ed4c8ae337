"""Symmetric banded generalized eigensolver and spectrum bookkeeping.

``solve_generalized`` solves A x = lambda B x (A symmetric banded, B
symmetric positive definite banded) in one of two ways.

Window solve (``count`` left out, B diagonal): every pair strictly inside a
value window.  This is the route of the radial operators, whose mass is
lumped.  The pencil is scaled to the standard banded problem
T = B^-1/2 A B^-1/2.  LAPACK bisection (dsbevx, values only) counts the
eigenvalues inside the window exactly, by Sturm counts at its ends, but
locates each one only to ``_WINDOW_ABSTOL`` times the window's half-width:
those values are shifts for inverse iteration, and the values returned are
the Rayleigh quotients of its vectors.  A chiral pencil (tridiagonal A with
a zero diagonal, the interleaved Dirac mode system) has a spectrum
symmetric about 0, pair by pair: (lam, x) and (-lam, S x) with
S = diag((-1)^i).  For it and a symmetric window only the positive half is
bisected and inverse-iterated and the negative half is mirrored, unless a
Sturm count at 0 shows a zero eigenvalue, which has no mirror; then the
whole window is solved.

Count solve (``count`` given, any banded B): the ``count`` eigenvalues
nearest a target, by one of

  * direct band reduction (``method="dense"``, any m): all values from one
    LAPACK dsbgvx call on the bands (Crawford's split-Cholesky reduction to
    a standard band problem, band tridiagonalization, root-free QR), the
    index block picked from them; O(m^2 b) time, O(m b) memory, no m x m
    array;
  * shift-invert Lanczos (any m): one ARPACK call on (A - sigma B)^-1 B with
    a sparse LU of the shifted banded matrix and a deterministically seeded
    start vector; a breakdown or a non-converged call (even one that holds
    enough partial pairs) raises ``SolverConvergenceError``.

The window solve and the direct count solve share one vector step: shifted
inverse iteration on the banded A - (lam + delta) B from seeded vectors,
B-orthogonalized against the earlier vectors of the same solve, returning
each vector's Rayleigh quotient.  On the window route a quotient further
from its bisection estimate than the bisection tolerance plus rounding
means the iteration slid to a neighbouring eigenvalue, which raises
``SolverConvergenceError`` rather than returning a duplicate.

Every returned pair is B-orthonormalized; residuals
||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||) are reported per pair and must
stay below ``RESIDUAL_TOL`` or, where double precision cannot certify
that, a small multiple of the evaluation floor.
A non-finite vector or residual fails that certificate.
"""

from __future__ import annotations

import ctypes
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack, lapack

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

# the direct route costs O(m^2 b), ARPACK grows about linearly in m: on random
# bandwidth-1 pencils with count=4 (2 BLAS threads) they tie near m=400 and
# ARPACK is 1.5x faster at m=600, 3x at m=1000 and 7x at m=1500
_AUTO_ITERATIVE_FROM = 600
_INVERSE_ITERATIONS = 3  # per vector; two already reach the residual floor
# window bisection stops at this fraction of the window's half-width: the
# values only shift inverse iteration, whose Rayleigh quotients are what is
# returned.  Measured on 2 cores with OpenBLAS: the 48 value calls of an
# L=1..8, N=2000 intrinsic sweep of both radial operators take 0.066 s
# against 0.126 s bisecting to full precision; over intrinsic sweeps of
# both at L up to 30 (N=400 and 2000) the worst residual was 4.8e-11 and
# lambda_1^+ moved by at most 1.0e-12 relative.
_WINDOW_ABSTOL = 1e-8
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
    return _residual(A.matvec(x), B.matvec(x), lam)


def _residual(ax: np.ndarray, bx: np.ndarray, lam: float) -> float:
    """Relative residual of a pair from its products A x and B x."""
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


def _residual_floor(norm_a: float, norm_b: float, ax, bx, lam: float, x: np.ndarray) -> float:
    """Smallest relative residual certifiable in double precision.

    Even the exact eigenvector, rounded to binary64, carries a residual of
    order eps * (||A|| + |lam| ||B||) ||x||; pencils with a huge spectral
    range (the squared fourth-order operator) sit well above 1e-9.
    ``norm_a`` and ``norm_b`` are the inf-norms of A and B, ``ax`` and
    ``bx`` the products A x and B x."""
    denom = np.linalg.norm(ax) + abs(lam) * np.linalg.norm(bx)
    if denom == 0.0:
        return 0.0
    scale = (norm_a + abs(lam) * norm_b) * np.linalg.norm(x)
    return float(np.finfo(float).eps * scale / denom)


def _b_orthonormalize(B: BandedSymmetric, vectors: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vectors:
        v = v.copy()
        for u in out:
            v -= (u @ B.matvec(v)) * u
        nrm = math.sqrt(max(v @ B.matvec(v), 0.0))
        if not np.isfinite(nrm) or nrm == 0.0:
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


def _bind_dsbgvx():
    """LAPACK dsbgvx from scipy's Cython LAPACK table.

    ``scipy.linalg.lapack`` does not wrap it.  The Cython entry point takes
    plain char/int/double pointers and no hidden string lengths."""
    capsule = cython_lapack.__pyx_capi__["dsbgvx"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )(capsule, name)
    c = ctypes.c_char_p
    i = ctypes.POINTER(ctypes.c_int)
    d = ctypes.POINTER(ctypes.c_double)
    # jobz range uplo n ka kb ab ldab bb ldbb q ldq vl vu il iu abstol
    # m w z ldz work iwork ifail info
    return ctypes.CFUNCTYPE(
        None, c, c, c, i, i, i, d, i, d, i, d, i, d, d, i, i, d, i, d, d, i, d, i, i, i
    )(address)


_dsbgvx = _bind_dsbgvx()


def _lower_storage(M: BandedSymmetric, bw: int) -> np.ndarray:
    """Column-major LAPACK lower band storage of M padded to bandwidth bw."""
    ab = np.zeros((bw + 1, M.size), order="F")
    ab[: M.bandwidth + 1] = M.bands
    return ab


def _full_storage(M: BandedSymmetric, bw: int) -> np.ndarray:
    """Both triangles of M in ``solve_banded``'s (bw, bw) band storage."""
    m = M.size
    ab = np.zeros((2 * bw + 1, m))
    ab[bw : bw + M.bandwidth + 1] = M.bands
    for k in range(1, M.bandwidth + 1):
        ab[bw - k, k:] = M.bands[k, : m - k]
    return ab


def _band_values(A: BandedSymmetric, B: BandedSymmetric) -> np.ndarray:
    """All eigenvalues of the banded pencil, ascending, by one dsbgvx call
    (split Cholesky band reduction, band tridiagonalization, root-free QR)."""
    for M in (A, B):
        if not np.isfinite(M.bands).all():
            raise ValueError("array must not contain infs or NaNs")
    m = A.size
    bw = max(A.bandwidth, B.bandwidth)
    ab = _lower_storage(A, bw)
    bb = _lower_storage(B, bw)
    w = np.empty(m)
    work = np.empty(7 * m)
    iwork = np.empty(5 * m, dtype=np.intc)
    ifail = np.empty(m, dtype=np.intc)
    dummy = np.zeros(1)  # Q, Z, vl, vu are not referenced; abstol reads 0
    found = ctypes.c_int(0)
    info = ctypes.c_int(0)

    def ptr(arr):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    def ref(k):
        return ctypes.byref(ctypes.c_int(k))

    _dsbgvx(
        b"N", b"A", b"L", ref(m), ref(bw), ref(bw), ptr(ab), ref(bw + 1), ptr(bb),
        ref(bw + 1), ptr(dummy), ref(1), ptr(dummy), ptr(dummy), ref(1), ref(m),
        ptr(dummy), ctypes.byref(found), ptr(w), ptr(dummy), ref(1), ptr(work),
        iwork.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
        ifail.ctypes.data_as(ctypes.POINTER(ctypes.c_int)), ctypes.byref(info),
    )
    if info.value > m:
        raise NotPositiveDefiniteError(info.value - m - 1)
    if info.value > 0:
        raise SolverConvergenceError(math.inf)
    if info.value < 0:
        raise ValueError(f"dsbgvx rejected argument {-info.value}")
    return np.sort(w[: found.value])


def _inverse_iteration(A, B, vals, scale, seed, slack=math.inf):
    """Rayleigh quotients and vectors of the pencil at the estimates ``vals``.

    Shifted inverse iteration (A - (lam + offset) B) x' = B x with a banded
    LU, each vector from its own seeded start.  ``scale`` is the spectral
    scale of the pencil; an offset of a few eps * scale keeps the shifted
    matrix from being exactly singular where a value is exact (a diagonal
    pencil), and a zero scale means A = 0, where any shift serves.  Each
    iterate is B-orthogonalized against the earlier vectors so that repeated
    or clustered values get distinct vectors.  The starts differ because a
    shared one leaves the later members of a cluster nothing of their own
    eigenvectors but rounding, which three steps at a shift as coarse as
    ``slack`` cannot amplify.  A Rayleigh quotient further than ``slack``
    from its estimate means the iteration slid to another eigenvalue, and
    raises ``SolverConvergenceError``.
    """
    offset = 4.0 * np.finfo(float).eps * scale or 1.0
    m = A.size
    bw = max(A.bandwidth, B.bandwidth)
    a_full = _full_storage(A, bw)
    b_full = _full_storage(B, bw)
    xs = np.empty((len(vals), m))  # rows, so that xs[:j] is contiguous
    quotients = []
    rng = np.random.default_rng(seed)
    for j, lam in enumerate(vals):
        shifted = b_full * -(lam + offset)
        shifted += a_full
        x = rng.standard_normal(m)
        for _ in range(_INVERSE_ITERATIONS):
            try:
                x = sla.solve_banded((bw, bw), shifted, B.matvec(x))
            except (sla.LinAlgError, ValueError) as exc:
                raise SolverConvergenceError(math.inf) from exc
            x -= (xs[:j] @ B.matvec(x)) @ xs[:j]
            nrm = math.sqrt(max(x @ B.matvec(x), 0.0))
            if not np.isfinite(nrm) or nrm == 0.0:
                raise SolverConvergenceError(math.inf)
            x /= nrm
        xs[j] = x
        rq = float(x @ A.matvec(x))  # x is B-normalized
        if not abs(rq - lam) <= slack:
            raise SolverConvergenceError(math.inf)
        quotients.append(rq)
    return quotients, list(xs)


def _dense_path(A, B, count, window, seed):
    """Direct band reduction: all values from the bands, block vectors by
    inverse iteration; no m x m array is formed."""
    _cholesky_or_raise(B)
    all_vals = _band_values(A, B)
    i0, i1 = _select_nearest(all_vals, count, window)
    vals = all_vals[i0 : i1 + 1]
    scale = float(np.abs(all_vals).max())
    return _inverse_iteration(A, B, vals, scale, seed)


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


def _window_values(T, lo, hi, abstol):
    """Eigenvalue estimates of the banded T in (lo, hi], by dsbevx bisection."""
    vals, _, found, _, info = lapack.dsbevx(
        T, lo, hi, 1, T.shape[1], compute_v=0, range=1, lower=1, abstol=abstol
    )
    if info != 0:
        raise SolverConvergenceError(math.inf)
    return vals[:found]


def _open_window_values(T, lo, hi, abstol, slack):
    """Eigenvalue estimates of the banded T strictly inside (lo, hi).

    The Sturm count at hi includes an eigenvalue equal to hi, whose estimate
    sits up to ``slack`` below it; when the top estimate is that close, one
    more count over (hi - 1 ulp, hi] says how many of the top estimates are
    such values."""
    vals = _window_values(T, lo, hi, abstol)
    if vals.size and vals[-1] > hi - slack:
        at_hi = _window_values(T, np.nextafter(hi, -np.inf), hi, abstol).size
        vals = vals[: vals.size - at_hi]
    return vals


def _window_path(A, B, window, seed):
    """Pairs strictly inside the window of a pencil with diagonal B.

    A chiral pencil (tridiagonal A with a zero diagonal, as the interleaved
    Dirac mode system is) satisfies S A S = -A and S B S = B with
    S = diag((-1)^i), so each pair (lam, x) comes with (-lam, S x).  For such
    a pencil and a symmetric window only the half (0, hi) is bisected and
    inverse-iterated, and each pair is returned with its mirror.  A zero
    eigenvalue (odd m, or a zero even off-diagonal) has no mirror: unless one
    Sturm count at 0 finds exactly m/2 eigenvalues at or below it, the whole
    window is solved as for any pencil.  The count is taken at 0, not at the
    window's ends, because a Sturm count at hi includes an eigenvalue equal
    to hi and would let one at hi stand in for a zero.  On both routes a
    pair is kept only if its Rayleigh quotient q satisfies lo < q < hi.
    """
    lo, hi = window
    if not lo < hi:
        return [], []
    m = A.size
    s = 1.0 / np.sqrt(B.bands[0])
    T = A.bands * s  # T = B^-1/2 A B^-1/2 in the same lower band storage
    for k in range(A.bandwidth + 1):
        T[k, : m - k] *= s[k:]
    scale = _inf_norm(BandedSymmetric(T))
    # the count inside the window is exact (Sturm counts) whatever abstol is
    abstol = _WINDOW_ABSTOL * max(abs(lo), abs(hi))
    # a Rayleigh quotient further from its estimate than the bisection
    # interval plus rounding in ||T|| belongs to a neighbouring eigenvalue
    slack = abstol + 8.0 * np.finfo(float).eps * scale
    chiral = A.bandwidth == 1 and lo == -hi and not A.bands[0].any()
    if chiral:
        # the spectrum is symmetric, so it holds no zero exactly when half
        # of it lies at or below 0; one Sturm count, no bisection, says so
        below = 2.0 * scale + 1.0
        chiral = 2 * _window_values(T, -below, 0.0, below).size == m
    vals = _open_window_values(T, 0.0 if chiral else lo, hi, abstol, slack)
    if vals.size == 0:
        return [], []
    pairs = zip(*_inverse_iteration(A, B, vals, scale, seed, slack))
    kept = [(q, x) for q, x in pairs if lo < q < hi]
    if chiral:
        sign = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        kept += [(-q, sign * x) for q, x in kept]
    return [q for q, _ in kept], [x for _, x in kept]


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
    0).  ``method`` is "dense" (direct band reduction), "iterative"
    (shift-invert Lanczos) or "auto".
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

    vectors = _b_orthonormalize(B, vecs)
    pairs = []
    failed = []
    norm_a, norm_b = _inf_norm(A), _inf_norm(B)
    for vec in vectors:
        ax, bx = A.matvec(vec), B.matvec(vec)
        lam = float(vec @ ax) / float(vec @ bx)
        res = _residual(ax, bx, lam)
        bound = max(RESIDUAL_TOL, 32.0 * _residual_floor(norm_a, norm_b, ax, bx, lam, vec))
        if not res <= bound:  # a NaN residual fails too
            failed.append(res)
        pairs.append(EigenPair(value=lam, vector=vec, residual=res))
    if failed:
        raise SolverConvergenceError(max(failed))
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
        return _dense_path(A, B, count, window, seed)
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
    kernel_tolerance: float

    @property
    def lambda_1_plus(self) -> float | None:
        return self.lambda_plus(1)

    @property
    def lambda_1_minus(self) -> float | None:
        return self.lambda_minus(1)

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
    return SpectrumReport(entries=tuple(entries), kernel_tolerance=kernel_tolerance)
