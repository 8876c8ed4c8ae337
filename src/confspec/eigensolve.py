"""Symmetric banded generalized eigensolver and spectrum bookkeeping.

``solve_generalized`` solves A x = lambda B x (A symmetric banded, B
symmetric positive definite banded) in one of two ways.

Every route but ARPACK bisects one symmetric tridiagonal T with the
pencil's eigenvalues.  A diagonal B is scaled away, T = B^-1/2 A B^-1/2,
and a scaled T wider than tridiagonal (the pentadiagonal Paneitz pencil) is
reduced once per solve by dsbtrd; any other B is reduced once by the band
reduction inside LAPACK dsbgvx (Crawford's split-Cholesky reduction, then
band tridiagonalization), in O(m^2 b) time and O(m b) memory with no m x m
array.  LAPACK dstebz bisects T on its diagonal and sub-diagonal as they
stand, and a Sturm count is a dstebz call whose tolerance is wider than the
spectrum.  The one exception is the positive half of a chiral T (below),
which is counted by LAPACK dlaneg and bisected in this module, on a
bidiagonal of half T's size.

Window solve (``count`` left out, B diagonal): every pair strictly inside a
value window (lo, hi).  This is the route of the radial operators, whose
mass is lumped.  Bisection counts the eigenvalues inside the window
exactly, by Sturm counts at its ends, but locates each one only to
``_WINDOW_ABSTOL`` times the window's half-width: those values are shifts
for inverse iteration, and the values returned are the Rayleigh quotients
of its vectors.  Every count and bisection of the window stops at the top
end nextafter(hi, -inf): dstebz takes the half-open (vl, vu], so that end
alone leaves out an eigenvalue on hi.  With ``lowest`` = k only the k
lowest above the kernel threshold are wanted: Sturm counts at the threshold
and at the top end size the window, an empty one ends the solve without
bisection, and a fuller one is halved by value until it holds exactly k,
which are then bisected.  A chiral pencil (tridiagonal A with a zero
diagonal, the interleaved Dirac mode system) has a spectrum symmetric about
0, pair by pair: (lam, x) and (-lam, S x) with S = diag((-1)^i).  For it and
a symmetric window only the positive half is counted, bisected and
inverse-iterated and the negative half is mirrored, unless its sub-diagonal
shows a zero eigenvalue, which has no mirror; then the whole window is
solved.  The positive half is the set of singular values of the m/2 x m/2
bidiagonal that T's sub-diagonal forms (Golub and Kahan), and dlaneg counts
those below x from its squared entries with relative accuracy: one pass
over m/2 entries, where a dstebz Sturm count of T passes over m and sets up
work arrays besides (17-20 against 136-159 microseconds at m = 3998,
N = 2000, on 2 cores).  The halving and the bisection to the window's
tolerance run on that count, and a converged interval holding c values
gives c copies, as in dstebz.

Count solve (``count`` given, any banded B): the ``count`` eigenvalues
nearest a window (default: nearest 0).  A Sturm count at each window end
brackets the candidates' index block, dstebz locates just those, and the
nearest ``count`` are inverse-iterated.  ``method`` "auto" and
"dense" both name this route.  ARPACK runs only when named: shift-invert
Lanczos (``method="iterative"``, any m, and ``count`` < m - 1 as ARPACK
requires; a larger count is a ``ValueError``, never a quiet switch to
bisection) makes one ARPACK call on the
standard symmetric operator L^T (A - sigma B)^-1 L, with B = L L^T the
Cholesky factor every solve computes, the banded LU of A - sigma B that
inverse iteration uses and a deterministically seeded start vector; a
breakdown or a non-converged call (even one that holds enough partial
pairs) raises ``SolverConvergenceError``.

Every route but ARPACK shares one vector step: shifted inverse iteration
on the banded A - (lam + delta) B from seeded vectors, B-orthogonalized
against the earlier vectors of the same solve.  Each route returns its
value estimates, its vectors and a slack, and every pair passes one gate
in ``solve_generalized``: the value is the vector's Rayleigh quotient,
formed once, and a quotient further than the slack from its estimate
means the iteration slid to a neighbouring eigenvalue, which raises
``SolverConvergenceError`` rather than returning a duplicate or a stranger.
The slack is 8 eps ||T|| (plus the window's bisection tolerance) on a
scaled T (B diagonal) and 64 eps ||T|| on a reduced T (any other B),
whose band reduction rounds its values further from the quotients;
ARPACK's Ritz values are held to none.

Every returned vector is B-orthonormal as its route returns it, and no
second pass touches it.  Inverse iteration B-orthogonalizes each iterate
against the earlier vectors of the same solve and B-normalizes it.  The
chiral mirror S x keeps x's B-norm and B-products exactly (S B S = B) and
is an eigenvector of -lam, hence B-orthogonal to the positive half.
ARPACK's Ritz vectors y are orthonormal, so the vectors x = L^-T y that
its route returns are B-orthonormal.  Residuals
||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||) are reported per pair and must
stay below ``RESIDUAL_TOL`` or, where double precision cannot certify
that, a small multiple of the evaluation floor.  Where that denominator
is below its own rounding, as at an exact zero eigenvalue, the residual
is taken against (||A|| + |lam| ||B||) ||x|| instead.
A non-finite vector or residual fails that certificate.

Every LAPACK routine is called one way: bound by ``_bind`` from scipy's
Cython LAPACK table, which is loaded from its extension file, so importing
this module imports neither ``scipy.linalg`` nor ``scipy.sparse``.  ARPACK
(``scipy.sparse.linalg``) is imported by the first ``method="iterative"``
solve, the only route that runs it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

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


def _lapack_table():
    """scipy's Cython LAPACK table, the module ``scipy.linalg.cython_lapack``,
    loaded from its extension file without importing ``scipy.linalg``.

    One already imported is reused.  A fresh one is left out of
    ``sys.modules``, so that a later ``import scipy.linalg`` loads it the
    usual way and binds it as its attribute; the extension is initialized
    once per process and hands that import this same module.  A missing
    file raises ``ImportError`` naming the directory searched: there is no
    other binding to fall back to."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    directory = pathlib.Path(scipy_spec.submodule_search_locations[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"cython_lapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy's cython_lapack extension not found in {directory}")
    # the extension's init symbol, PyInit_cython_lapack, is named after the
    # last component of the module name
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules.pop(name, None)  # the extension's init put itself there
    return module


_LAPACK = _lapack_table()


def _bind(name, *argtypes, restype=None):
    """LAPACK routine ``name`` from scipy's Cython LAPACK table, the one way
    this module calls LAPACK.  Its entry points take plain char/int/double
    pointers and no hidden string lengths.  An int or a scalar double goes in
    as a ``ctypes.c_int`` or ``ctypes.c_double``, an array as its address
    (``_P``), taken once per array: the routines check neither dtype nor
    memory order, so a band array must be Fortran-ordered (or one contiguous
    row) and every integer array int32.  A LAPACK function (not a subroutine)
    names its C return type as ``restype``."""
    capsule = _LAPACK.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )(capsule, capsule_name)
    return ctypes.CFUNCTYPE(restype, *argtypes)(address)


_C = ctypes.c_char_p
_I = ctypes.POINTER(ctypes.c_int)
_D = ctypes.POINTER(ctypes.c_double)
_P = ctypes.c_void_p  # an array's data address
# uplo n kd ab ldab info
_dpbtrf = _bind("dpbtrf", _C, _I, _I, _P, _I, _I)
_dpbstf = _bind("dpbstf", _C, _I, _I, _P, _I, _I)
# vect uplo n ka kb ab ldab bb ldbb x ldx work info
_dsbgst = _bind("dsbgst", _C, _C, _I, _I, _I, _P, _I, _P, _I, _P, _I, _P, _I)
# vect uplo n kd ab ldab d e q ldq work info
_dsbtrd = _bind("dsbtrd", _C, _C, _I, _I, _P, _I, _P, _P, _P, _I, _P, _I)
# range order n vl vu il iu abstol d e m nsplit w iblock isplit work iwork info
_dstebz = _bind(
    "dstebz", _C, _C, _I, _D, _D, _I, _I, _D, _P, _P, _I, _I, _P, _P, _P, _P, _P, _I
)
# n d lld sigma pivmin r; returns the count of eigenvalues below sigma
_dlaneg = _bind("dlaneg", _I, _P, _P, _D, _D, _I, restype=ctypes.c_int)
# n dl d du du2 ipiv info
_dgttrf = _bind("dgttrf", _I, _P, _P, _P, _P, _P, _I)
# trans n nrhs dl d du du2 ipiv b ldb info
_dgttrs = _bind("dgttrs", _C, _I, _I, _P, _P, _P, _P, _P, _P, _I, _I)
# m n kl ku ab ldab ipiv info
_dgbtrf = _bind("dgbtrf", _I, _I, _I, _I, _P, _I, _P, _I)
# trans n kl ku nrhs ab ldab ipiv b ldb info
_dgbtrs = _bind("dgbtrs", _C, _I, _I, _I, _I, _P, _I, _P, _P, _I, _I)
# uplo trans diag n kd nrhs ab ldab b ldb info
_dtbtrs = _bind("dtbtrs", _C, _C, _C, _I, _I, _I, _P, _I, _P, _I, _I)
_ONE = ctypes.c_int(1)  # a leading dimension of an unreferenced array
_PIVMIN = ctypes.c_double(np.finfo(float).tiny)  # dlaneg's pivmin, which it leaves unread
_UNUSED = np.zeros(1)  # Q, X and Z of the routines that compute no vectors
_UNUSED_P = _UNUSED.ctypes.data

# glibc's malloc maps a block at or above its mmap threshold (128 KB at
# start-up) from fresh pages and hands free heap above twice the threshold
# back to the system; freeing a mapped block raises the threshold to that
# block's size (mallopt(3)).  The solver's work arrays (up to 256 KB at
# m = 4000) would keep the heap top cycling through page faults: an L=1..8,
# N=2000 sweep pass of CLI rows faulted about 1570 pages, and under 10 once
# this one 1 MB block has been allocated and freed.  The scipy imports this
# module no longer makes used to raise the threshold in passing.
np.empty(1 << 17)


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
    """B's Cholesky factor L (B = L L^T) in Fortran-ordered lower band
    storage, as dpbtrf leaves it; a diagonal B's is its square root."""
    if not np.isfinite(B.bands).all():
        raise ValueError("array must not contain infs or NaNs")
    ab = np.array(B.bands, order="F")  # dpbtrf factors in place
    n, kd, ld = ctypes.c_int(B.size), ctypes.c_int(B.bandwidth), ctypes.c_int(B.bandwidth + 1)
    info = ctypes.c_int(0)
    _dpbtrf(b"L", n, kd, ab.ctypes.data, ld, info)
    if info.value > 0:
        raise NotPositiveDefiniteError(info.value - 1)
    return ab


def _inf_norm(A: BandedSymmetric) -> float:
    rows = BandedSymmetric(np.abs(A.bands)).matvec(np.ones(A.size))
    return float(rows.max(initial=0.0))


def _certificate(norm_a: float, norm_b: float, ax, bx, lam: float, x) -> tuple[float, float]:
    """Relative residual of a pair and the smallest one certifiable in
    double precision, from its products ``ax`` = A x and ``bx`` = B x and
    the inf-norms of A and B.

    The residual is ||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||).  Even the
    exact eigenvector, rounded to binary64, carries a residual of order
    eps (||A|| + |lam| ||B||) ||x|| over that denominator; pencils with a
    huge spectral range (the squared fourth-order operator) sit well above
    1e-9.  Where the denominator is itself below that rounding, both are
    taken relative to (||A|| + |lam| ||B||) ||x|| instead: at an exact zero
    eigenvalue A x and lam vanish together and the first ratio is 1 for any
    x."""
    eps = np.finfo(float).eps
    denom = np.linalg.norm(ax) + abs(lam) * np.linalg.norm(bx)
    scale = (norm_a + abs(lam) * norm_b) * np.linalg.norm(x)
    if denom < eps * scale:
        denom = scale
    if denom == 0.0:
        return 0.0, 0.0
    return float(np.linalg.norm(ax - lam * bx) / denom), float(eps * scale / denom)


def _select_nearest(values: np.ndarray, count: int, window) -> tuple[int, int]:
    """Contiguous index block of the ``count`` eigenvalues nearest the
    window (lo, hi)."""
    lo, hi = window
    dist = np.maximum.reduce([lo - values, values - hi, np.zeros_like(values)])
    order = np.argsort(dist, kind="stable")[:count]
    return int(order.min()), int(order.max())


def _lower_storage(M: BandedSymmetric, bw: int) -> np.ndarray:
    """Column-major LAPACK lower band storage of M padded to bandwidth bw."""
    ab = np.zeros((bw + 1, M.size), order="F")
    ab[: M.bandwidth + 1] = M.bands
    return ab


def _full_storage(M: BandedSymmetric, bw: int) -> np.ndarray:
    """Both triangles of M in dgbtrf's storage for (bw, bw) bands: bw rows of
    room for the fill-in, then the diagonals from the bw-th above down.
    Fortran-ordered, as dgbtrf reads it, except for bandwidth 1: there rows
    1-3 are the super-, main and sub-diagonal dgttrf reads, each contiguous."""
    m = M.size
    ab = np.zeros((3 * bw + 1, m), order="C" if bw == 1 else "F")
    ab[2 * bw : 2 * bw + M.bandwidth + 1] = M.bands
    for k in range(1, M.bandwidth + 1):
        ab[2 * bw - k, k:] = M.bands[k, : m - k]
    return ab


class _ShiftedSolver:
    """Solves (A - sigma B) y = r for one shift sigma at a time, each
    factored once by LU with partial pivoting.

    An exactly zero pivot (sigma an eigenvalue to working precision) is set
    to ``tiny``, as LAPACK's tridiagonal inverse iteration perturbs it.
    Tridiagonal pencils of any size take the cheaper dgttrf/dgttrs (gtsv's
    elimination), factored in place in rows 1-3 of the shifted storage, the
    rest dgbtrf/dgbtrs.  The storage, its addresses and the integer
    arguments are set up once per pencil; each ``factor`` overwrites the
    previous shift's factors."""

    def __init__(self, A: BandedSymmetric, B: BandedSymmetric):
        bw = max(A.bandwidth, B.bandwidth)
        m = A.size
        self.a_full, self.b_full = _full_storage(A, bw), _full_storage(B, bw)
        self.lu = np.empty_like(self.a_full)  # in the same memory order
        self.pivots = self.lu[2 * bw]  # U's diagonal
        self.n, self.bw, self.info = ctypes.c_int(m), ctypes.c_int(bw), ctypes.c_int(0)
        self.ipiv = np.empty(m, np.int32)
        self.tridiagonal = bw == 1
        if self.tridiagonal:
            self.du2 = np.empty(max(m - 2, 1))
            row, step = self.lu.ctypes.data, self.lu.strides[0]
            # dl is row 3, d row 2 and du row 1 from its second entry on
            self.factors = (
                row + 3 * step, row + 2 * step, row + step + self.lu.itemsize,
                self.du2.ctypes.data, self.ipiv.ctypes.data,
            )
        else:
            ld = ctypes.c_int(3 * bw + 1)
            self.factors = (self.lu.ctypes.data, ld, self.ipiv.ctypes.data)

    def factor(self, sigma: float, tiny: float) -> None:
        np.multiply(self.b_full, -sigma, out=self.lu)
        self.lu += self.a_full
        if self.tridiagonal:
            _dgttrf(self.n, *self.factors, self.info)
        else:
            _dgbtrf(self.n, self.n, self.bw, self.bw, *self.factors, self.info)
        self.pivots[self.pivots == 0.0] = tiny

    def solve(self, r: np.ndarray) -> np.ndarray:
        """y for the current shift, written over r (float64, contiguous)."""
        if self.tridiagonal:
            _dgttrs(b"N", self.n, _ONE, *self.factors, r.ctypes.data, self.n, self.info)
        else:
            _dgbtrs(
                b"N", self.n, self.bw, self.bw, _ONE, *self.factors, r.ctypes.data, self.n,
                self.info,
            )
        return r


def _inverse_iteration(A, B, vals, scale, seed):
    """B-orthonormal vectors of the pencil at the estimates ``vals``.

    Shifted inverse iteration (A - (lam + offset) B) x' = B x with one banded
    LU per shift, each vector from its own seeded start.  ``scale`` is the
    spectral scale of the pencil.  The offset 4 eps (|lam| + eps scale) keeps
    the shifted matrix from being exactly singular where a value is exact (a
    diagonal pencil, or lam = 0) while staying a few ulps of lam, not of
    ||T||, off it: three steps certify even where ||T|| is 1e11 times lam.
    A zero offset (A = 0 at lam = 0) becomes 1, where any shift serves; a
    pivot the offset still leaves exactly zero becomes eps (scale + |lam|).
    Each iterate is B-orthogonalized against the earlier vectors so that
    repeated or clustered values get distinct vectors.  The starts differ
    because a shared one leaves the later members of a cluster nothing of
    their own eigenvectors but rounding, which three steps at a shift as
    coarse as a bisection estimate cannot amplify.  Whether a vector slid
    to another eigenvalue is judged by ``solve_generalized``.
    """
    eps = np.finfo(float).eps
    m = A.size
    shifted = _ShiftedSolver(A, B)
    xs = np.empty((len(vals), m))  # rows, so that xs[:j] is contiguous
    rng = np.random.default_rng(seed)
    for j, lam in enumerate(vals):
        offset = 4.0 * eps * (abs(lam) + eps * scale) or 1.0
        shifted.factor(lam + offset, eps * (scale + abs(lam)))
        x = rng.standard_normal(m)
        for _ in range(_INVERSE_ITERATIONS):
            x = shifted.solve(B.matvec(x))  # a fresh array, solved in place
            x -= (xs[:j] @ B.matvec(x)) @ xs[:j]
            nrm = math.sqrt(max(x @ B.matvec(x), 0.0))
            if not np.isfinite(nrm) or nrm == 0.0:
                raise SolverConvergenceError(math.inf)
            x /= nrm
        xs[j] = x
    return list(xs)


def _iterative_path(A, B, L, count, window, seed):
    """Estimates of the ``count`` eigenvalues nearest the window's centre
    sigma, their vectors and an infinite slack, by Lanczos (ARPACK) on a
    standard symmetric problem.

    With B = L L^T (``L`` its Cholesky factor in lower band storage), the
    operator y -> L^T (A - sigma B)^-1 L y is symmetric with eigenvalues
    theta = 1/(lam - sigma), so its ``count`` largest in magnitude are the
    pencil's nearest sigma.  ARPACK's regular mode asks for this one product
    per step and for no B-product.  A - sigma B is factored once by
    ``_ShiftedSolver``, which sets an exactly zero pivot (sigma an
    eigenvalue) to the rounding of the matrix's entries,
    eps (||A|| + |sigma| ||B||).  The estimates are sigma + 1/theta and the
    vectors x = L^-T y, B-orthonormal because the Ritz vectors y are
    orthonormal.  Ritz values have no bisection bound to hold them to."""
    import scipy.sparse.linalg as spla  # ARPACK, loaded on the first iterative solve

    m = A.size
    kd = L.shape[0] - 1
    center = 0.5 * (window[0] + window[1])
    shifted = _ShiftedSolver(A, B)
    eps = np.finfo(float).eps
    shifted.factor(center, eps * (_inf_norm(A) + abs(center) * _inf_norm(B)))

    def operator(y):
        r = L[0] * y  # L y into a fresh array, solved in place
        for k in range(1, kd + 1):
            r[k:] += L[k, : m - k] * y[: m - k]
        z = shifted.solve(r)
        out = L[0] * z  # L^T z
        for k in range(1, kd + 1):
            out[: m - k] += L[k, : m - k] * z[k:]
        return out

    v0 = np.random.default_rng(seed).standard_normal(m)
    try:
        theta, ys = spla.eigsh(
            spla.LinearOperator((m, m), matvec=operator, dtype=float),
            k=count, which="LM", v0=v0, tol=0,
        )
    except (RuntimeError, ValueError) as exc:  # ArpackNoConvergence is a RuntimeError
        raise SolverConvergenceError(math.inf) from exc
    xs = np.array(ys.T, order="C")  # rows: the column-major right-hand sides of dtbtrs
    info = ctypes.c_int(0)
    _dtbtrs(
        b"L", b"T", b"N", ctypes.c_int(m), ctypes.c_int(kd), ctypes.c_int(count), L.ctypes.data,
        ctypes.c_int(kd + 1), xs.ctypes.data, ctypes.c_int(m), info,
    )
    return center + 1.0 / theta, list(xs), math.inf


def _scaled_standard(A, L):
    """T = L^-1 A L^-T = B^-1/2 A B^-1/2 for a diagonal B with Cholesky
    factor ``L``, in A's lower band storage, and its inf-norm, which bounds
    the spectrum."""
    m = A.size
    s = 1.0 / L[0]
    T = A.bands * s
    for k in range(A.bandwidth + 1):
        T[k, : m - k] *= s[k:]
    return T, _inf_norm(BandedSymmetric(T))


def _reduced_standard(A, B):
    """A symmetric tridiagonal T with the eigenvalues of the pencil, for a B
    that is not diagonal, in lower band storage, and its inf-norm.

    The reduction is the one inside LAPACK dsbgvx: B = S^T S by a split
    Cholesky factorization (dpbstf), A to the band matrix X^T A X with the
    same eigenvalues (dsbgst, Crawford's algorithm) and that to tridiagonal
    form (dsbtrd), with no transformation accumulated and no m x m array."""
    if not np.isfinite(A.bands).all():  # B's were checked by its Cholesky
        raise ValueError("array must not contain infs or NaNs")
    m = A.size
    bw = max(A.bandwidth, B.bandwidth)
    ab = _lower_storage(A, bw)
    bb = _lower_storage(B, bw)
    work = np.empty(2 * m)
    ab_p, bb_p, work_p = ab.ctypes.data, bb.ctypes.data, work.ctypes.data
    n, kd, ld = (ctypes.c_int(k) for k in (m, bw, bw + 1))
    info = ctypes.c_int(0)
    _dpbstf(b"L", n, kd, bb_p, ld, info)
    if info.value > 0:
        raise NotPositiveDefiniteError(info.value - 1)
    _dsbgst(b"N", b"L", n, kd, kd, ab_p, ld, bb_p, ld, _UNUSED_P, _ONE, work_p, info)
    T = _tridiagonal(ab)
    return T, _inf_norm(BandedSymmetric(T))


def _tridiagonal(T):
    """A symmetric tridiagonal matrix with the eigenvalues of the banded T,
    as a C-ordered (2, m) lower band storage: diagonal, then sub-diagonal.
    A tridiagonal T is returned as it stands; any other is reduced by dsbtrd
    (no transformation accumulated), as dsbevx reduces it, which copies a
    diagonal T with a zero sub-diagonal."""
    kd, m = T.shape[0] - 1, T.shape[1]
    if kd == 1:
        return np.ascontiguousarray(T)
    out = np.zeros((2, m))
    ab = np.array(T, order="F")  # dsbtrd overwrites its band
    work = np.empty(m)
    n, bw, ld, info = ctypes.c_int(m), ctypes.c_int(kd), ctypes.c_int(kd + 1), ctypes.c_int(0)
    _dsbtrd(
        b"N", b"L", n, bw, ab.ctypes.data, ld, out[0].ctypes.data, out[1].ctypes.data,
        _UNUSED_P, _ONE, work.ctypes.data, info,
    )
    return out


def _bisect(T, abstol, lo=0.0, hi=0.0, first=None, stop=None):
    """dstebz bisection of the banded T, the one bisection this module runs:
    the eigenvalue estimates in (lo, hi], or with ``first`` and ``stop`` the
    ascending numbers first..stop-1 (0-based), to ``abstol``.  dstebz reads
    the diagonal and sub-diagonal of a tridiagonal T in place, leaving T as
    it was; a wider T is reduced first."""
    T = _tridiagonal(T)
    m = T.shape[1]
    by_index = first is not None
    il, iu = (first + 1, stop) if by_index else (1, m)
    # w (m) then work (4m) in one array; iblock (m), isplit (m) then iwork
    # (3m) in another
    w = np.empty(5 * m)
    iwork = np.empty(5 * m, np.int32)
    w_p, iwork_p, step = w.ctypes.data, iwork.ctypes.data, iwork.itemsize * m
    found, nsplit, info = ctypes.c_int(0), ctypes.c_int(0), ctypes.c_int(0)
    _dstebz(
        b"I" if by_index else b"V", b"E", ctypes.c_int(m), ctypes.c_double(lo),
        ctypes.c_double(hi), ctypes.c_int(il), ctypes.c_int(iu), ctypes.c_double(abstol),
        T[0].ctypes.data, T[1].ctypes.data, found, nsplit, w_p, iwork_p, iwork_p + step,
        w_p + w.itemsize * m, iwork_p + 2 * step, info,
    )
    if info.value != 0:
        raise SolverConvergenceError(math.inf)
    return w[: found.value]


# Sturm counts call the same dstebz wrapper under a name of their own, which
# keeps them apart from the value bisections that go through _bisect
_sturm_stebz = _bisect


def _count_at_or_below(T, x, scale):
    """Number of eigenvalues of T at or below x: a Sturm count, since a
    tolerance wider than the whole spectrum leaves dstebz nothing to bisect."""
    wide = 2.0 * scale + abs(x) + 1.0
    return _sturm_stebz(T, wide, -wide, x).size


class _HalfBidiagonal:
    """The positive half of a chiral T's spectrum, counted and bisected on a
    bidiagonal of half T's size.

    A tridiagonal T of even size m = 2p with a zero diagonal and sub-diagonal
    e is, with its even rows and columns ordered first, [[0, C], [C^T, 0]]
    for the p x p lower bidiagonal C with diagonal a = e[0::2] and
    sub-diagonal b = e[1::2], so its eigenvalues are +- the singular values
    of C (Golub and Kahan 1965).  C C^T = L D L^T with D = diag(a^2) and L
    unit lower bidiagonal with sub-diagonal b_i / a_i, so the number of
    singular values below x is the number of negative pivots of
    L D L^T - x^2 I, which LAPACK dlaneg counts from D and L^2 D = b^2 with
    relative accuracy (Demmel and Kahan 1990), in one pass over p entries
    where a Sturm count of T takes m.  T is divided by ``scale``, a bound on
    its entries, first, so that no square overflows; ``d`` holds a^2, and a
    square that underflows to 0 reads as a zero singular value.

    A pivot that is exactly 0 makes dlaneg's next step inf * b_i^2, which it
    carries through as the limit of a pivot +0 where b_i^2 > 0 but which is
    a NaN where b_i^2 = 0, losing the next pivot's sign.  So C is counted in
    pieces, split where b_i^2 is 0 (exactly or by underflow), which
    decouples them; the Dirac pencils have no such split and one piece."""

    def __init__(self, T, scale):
        self.scale = scale
        self.d = (T[1, 0::2] / scale) ** 2
        self.lld = (T[1, 1::2] / scale) ** 2  # dlaneg reads a piece's first size - 1
        cuts = [0, *(np.flatnonzero(self.lld[:-1] == 0.0) + 1).tolist(), self.d.size]
        step = self.d.itemsize
        self.pieces = [
            (ctypes.c_int(stop - start), self.d.ctypes.data + step * start,
             self.lld.ctypes.data + step * start)
            for start, stop in zip(cuts, cuts[1:])
        ]

    def count_below(self, x):
        """Number of eigenvalues of T in (0, x), for x > 0: a dlaneg count
        per piece with the twist index at its end, which is the plain
        top-down qd pass; a pivot that is exactly 0 counts as positive."""
        sigma = ctypes.c_double((x / self.scale) ** 2)
        return sum(_dlaneg(n, d, lld, sigma, _PIVMIN, n) for n, d, lld in self.pieces)

    def values(self, lower, upper, abstol):
        """Estimates of T's eigenvalues in (lower, upper), 0 <= lower < upper,
        ascending, by bisection on ``count_below``.  An interval narrower
        than ``abstol`` that holds c values gives c copies of its midpoint,
        as dstebz does, and a count that falls outside its interval's two
        end counts is clamped to them, as dstebz's dlaebz does."""
        found = []
        below = self.count_below(lower) if lower > 0.0 else 0
        todo = [(lower, upper, below, self.count_below(upper))]
        while todo:
            a, b, n_a, n_b = todo.pop()  # the lowest interval left
            if n_a == n_b:
                continue
            mid = 0.5 * (a + b)
            if b - a <= abstol or not a < mid < b:
                found += [mid] * (n_b - n_a)
                continue
            n_mid = min(max(self.count_below(mid), n_a), n_b)
            todo += [(mid, b, n_mid, n_b), (a, mid, n_a, n_mid)]
        return np.array(found)


def _lowest_values(count, bisect, lower, below, top, k, abstol):
    """Estimates of the ``k`` lowest eigenvalues in (lower, top]; fewer when
    the window holds fewer.  ``count(x)`` is the number at or below x (below
    x on a chiral T's half), ``below`` the number at or below lower and
    ``bisect(lower, upper)`` the estimates in (lower, upper].

    One count at top sizes the window, and an empty one ends the solve
    there.  A window holding more than k is halved by value, a count per
    step, until (lower, top] holds exactly k, so that one bisection locates
    just those: an index range would start dstebz from the Gershgorin
    interval of T, which is up to 1e6 times wider than the window on the
    lab's pencils.  Halving stops at the bisection tolerance, which is as
    far as a cluster at the k-th value can be split anyway."""
    inside = count(top) - below
    if inside <= 0:
        return np.empty(0)
    short = lower  # (lower, short] holds fewer than k, (lower, top] holds `inside`
    while inside > k and top - short > abstol:
        mid = 0.5 * (short + top)
        held = count(mid) - below
        if held < k:
            short = mid
        else:
            top, inside = mid, held
    return bisect(lower, top)[:k]


def _window_path(A, B, L, window, seed, lowest):
    """Pairs strictly inside the window of a pencil with diagonal B: all of
    them, or with ``lowest`` = k the k lowest above the kernel threshold
    1e-8 max(|lo|, |hi|).

    A chiral pencil (tridiagonal A with a zero diagonal, as the interleaved
    Dirac mode system is) satisfies S A S = -A and S B S = B with
    S = diag((-1)^i), so each pair (lam, x) comes with (-lam, S x).  For such
    a pencil and a symmetric window only the half (0, hi) is counted,
    bisected (on ``_HalfBidiagonal``) and inverse-iterated (with ``lowest``,
    its k lowest), and each pair is returned with its mirror.  A zero
    eigenvalue has no mirror.  The zero diagonal of T makes its determinant
    (-1)^(m/2) prod sub[0::2]^2 for even m, so T holds a zero eigenvalue
    exactly when m is odd or one of those sub-diagonal entries is zero; then,
    and where one of their scaled squares underflows to 0, the whole window
    is solved as for any pencil.  Returns the estimates, their vectors and
    the slack within which each vector's quotient must stay of its estimate.
    """
    lo, hi = window
    # every count and bisection stops 1 ulp below hi: dstebz takes (vl, vu],
    # so an eigenvalue on hi is left out by the counts themselves
    top = np.nextafter(hi, -np.inf)
    if not lo < top:
        return [], [], 0.0
    m = A.size
    T, scale = _scaled_standard(A, L)
    T = _tridiagonal(T)
    # the count inside the window is exact (Sturm counts) whatever abstol is
    abstol = _WINDOW_ABSTOL * max(abs(lo), abs(hi))
    # a Rayleigh quotient further from its estimate than the bisection
    # interval plus rounding in ||T|| belongs to a neighbouring eigenvalue
    slack = abstol + 8.0 * np.finfo(float).eps * scale
    chiral = A.bandwidth == 1 and lo == -hi and m % 2 == 0 and not A.bands[0].any()
    half = _HalfBidiagonal(T, scale) if chiral and 0.0 < scale < math.inf else None
    # an even sub-diagonal entry that is zero, or whose scaled square
    # underflows to 0, is a zero eigenvalue, which has no mirror
    chiral = half is not None and half.d.all()
    if chiral:
        lower, count = 0.0, half.count_below

        def bisect(lower, upper):
            return half.values(lower, upper, abstol)
    else:
        lower = lo if lowest is None else max(lo, 1e-8 * max(abs(lo), abs(hi)))

        def count(x):
            return _count_at_or_below(T, x, scale)

        def bisect(lower, upper):
            return _bisect(T, abstol, lower, upper)

    if lowest is None:
        vals = bisect(lower, top)
    else:
        below = 0 if chiral else count(lower)  # the chiral half counts up from 0
        vals = _lowest_values(count, bisect, lower, below, top, lowest, abstol)
    if vals.size == 0:
        return vals, [], slack
    vectors = _inverse_iteration(A, B, vals, scale, seed)
    if chiral:
        sign = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        vals = np.concatenate([vals, -vals])
        vectors += [sign * x for x in vectors]
    return vals, vectors, slack


def _nearest_path(A, B, L, count, window, seed, diagonal):
    """Estimates of the ``count`` eigenvalues nearest the window (lo, hi),
    their vectors and the slack of the estimates.

    A diagonal B is scaled into T = B^-1/2 A B^-1/2, any other reduced to a
    tridiagonal T; either has the pencil's eigenvalues, and a scaled T wider
    than tridiagonal is reduced once more, by dsbtrd.  The values at or
    below lo have the indices below the Sturm count at lo, those above hi
    the indices from the count at hi on, so the nearest ``count`` lie among
    the ``count`` on either side of the window and those inside it.  dstebz
    bisects just that index block of T, to its default tolerance eps ||T||,
    and the nearest ``count`` of it are inverse-iterated on the pencil.  The
    slack is 8 eps ||T|| on the scaled T and 64 eps ||T|| on the reduced
    one, whose reduction rounds its values further from the quotients."""
    lo, hi = window
    T, scale = _scaled_standard(A, L) if diagonal else _reduced_standard(A, B)
    T = _tridiagonal(T)
    below_lo = _count_at_or_below(T, lo, scale)
    below_hi = below_lo if hi == lo else _count_at_or_below(T, hi, scale)
    first = max(below_lo - count, 0)
    stop = min(below_hi + count, A.size)
    vals = _bisect(T, 0.0, first=first, stop=stop)
    i0, i1 = _select_nearest(vals, count, window)
    vals = vals[i0 : i1 + 1]
    # a reduced T's quotients were measured up to 18.3 eps ||T|| from their
    # estimates (criterion 7's m=4000 pencil), 9.7 over 226 seeds of the
    # perfbench pencil ladder
    slack = (8.0 if diagonal else 64.0) * np.finfo(float).eps * scale
    return vals, _inverse_iteration(A, B, vals, scale, seed), slack


def solve_generalized(
    A: BandedSymmetric,
    B: BandedSymmetric,
    count: int | None = None,
    window: tuple[float, float] | None = None,
    method: str = "auto",
    seed: int = 0,
    lowest: int | None = None,
) -> list[EigenPair]:
    """Eigenpairs of A x = lambda B x, sorted by eigenvalue, each B-normalized
    with its relative residual.

    With ``count`` left out: every pair strictly inside ``window = (lo, hi)``
    (possibly none), judged by the quotient returned, which can lie on an end
    that the bisection estimate lies inside.  This needs a diagonal B and a
    window.  With
    ``lowest`` = k as well: only the k lowest pairs inside the window and
    above the kernel threshold tau = 1e-8 max(|lo|, |hi|), or all of them if
    there are fewer; a chiral pencil returns the k lowest of (0, hi), each
    with its mirror.

    With ``count``: the ``count`` pairs nearest the window (default: nearest
    0).  ``method`` is "auto" or its synonym "dense" (bisection of the
    scaled or band-reduced pencil, then inverse iteration) or "iterative"
    (shift-invert Lanczos), which needs ``count`` < m - 1 and raises
    ``ValueError`` otherwise.
    """
    m = A.size
    if B.size != m:
        raise ValueError("A and B sizes differ")
    diagonal = not np.any(B.bands[1:])
    if count is None:
        if window is None or not diagonal:
            raise ValueError("a solve without count needs a window and a diagonal B")
        if method != "auto":
            raise ValueError("method applies to solves with a count")
        if lowest is not None and lowest < 1:
            raise ValueError("lowest must be at least 1")
    elif lowest is not None:
        raise ValueError("lowest applies to solves without a count")
    elif count < 1:
        raise ValueError("count must be at least 1")
    elif method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    elif method == "iterative" and count >= m - 1:
        raise ValueError(f"method 'iterative' needs count < m - 1 = {m - 1}, got {count}")
    L = _cholesky_or_raise(B)
    window = (0.0, 0.0) if window is None else window  # count solves: nearest 0
    if count is None:
        estimates, vecs, slack = _window_path(A, B, L, window, seed, lowest)
    elif method == "iterative":
        estimates, vecs, slack = _iterative_path(A, B, L, count, window, seed)
    else:
        estimates, vecs, slack = _nearest_path(A, B, L, min(count, m), window, seed, diagonal)

    if not vecs:
        return []  # an empty window: no pair to certify, so no norm to take
    pairs = []
    failed = []
    norm_a, norm_b = _inf_norm(A), _inf_norm(B)
    for estimate, vec in zip(estimates, vecs):
        ax, bx = A.matvec(vec), B.matvec(vec)
        lam = float(vec @ ax) / float(vec @ bx)
        if not abs(lam - estimate) <= slack:  # a NaN quotient fails too
            # the iteration slid to a neighbouring eigenvalue
            raise SolverConvergenceError(math.inf)
        if count is None and not window[0] < lam < window[1]:
            continue  # an eigenvalue on a window end, found from inside
        res, floor = _certificate(norm_a, norm_b, ax, bx, lam, vec)
        bound = max(RESIDUAL_TOL, 32.0 * floor)
        if not res <= bound:  # a NaN residual fails too
            failed.append(res)
        pairs.append(EigenPair(value=lam, vector=vec, residual=res))
    if failed:
        raise SolverConvergenceError(max(failed))
    pairs.sort(key=lambda pr: pr.value)
    return pairs


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Multiplicity-weighted union of per-mode spectra.

    ``lambda_1_plus`` is the smallest eigenvalue above the kernel tolerance,
    None when there is none; ``lambda_minus(j)`` counts below its negative.
    """

    entries: tuple[SpectrumEntry, ...]
    kernel_tolerance: float

    @property
    def lambda_1_plus(self) -> float | None:
        return self.lambda_plus(1)

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


def aggregate(per_mode: list[tuple[ModeSpec, list[EigenPair]]]) -> SpectrumReport:
    """Merge per-mode eigenpairs into one sorted, multiplicity-tagged
    spectrum.  The kernel tolerance is 1e-8 times the spectral scale, the
    largest |value|.
    """
    entries = sorted(
        (SpectrumEntry(pair.value, mode.multiplicity, pair.residual)
         for mode, pairs in per_mode for pair in pairs),
        key=lambda e: e.value,
    )
    scale = max((abs(e.value) for e in entries), default=0.0)
    return SpectrumReport(tuple(entries), 1e-8 * scale)
