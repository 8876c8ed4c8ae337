"""Symmetric banded generalized eigensolver and spectrum bookkeeping.

``solve_generalized`` solves A x = lambda B x (A symmetric banded, B
symmetric positive definite banded) in one of two ways.

Every route but the iterative one works on one symmetric tridiagonal T with
the pencil's eigenvalues, which one front end, ``_standard_form``, builds.  A
diagonal B is scaled away, T = B^-1/2 A B^-1/2, and a scaled T wider than
tridiagonal (the pentadiagonal Paneitz pencil) is reduced once per solve by
dsbtrd; any other B is reduced once by the band reduction inside LAPACK
dsbgvx (Crawford's split-Cholesky reduction, then band tridiagonalization),
in O(m^2 b) time and O(m b) memory with no m x m array.  The front end also
says whether T was band-reduced, the one decision that sets a value's slack
and whether its twisted vector serves.

One value engine serves window and count solves: one L D L^T of T per
solve (Dhillon and Parlett, LAA 387, 2004), T - tau I by dpttrf, with
tau = 0 where T is positive definite, as every scalar mode pencil is, and
-2 ||T||inf otherwise.  LAPACK dlaneg counts its eigenvalues below a
shift.  One value stage, ``_refined_values``, serves every solve: given a
bracket with its counts and the index block of the values wanted
(ascending, numbered from 0), bisection on counts isolates each wanted
value in an interval that holds it alone and drops unsplit every interval
that holds no wanted index.  LAPACK dlar1v then runs Rayleigh quotient
iteration on twisted factorizations from the interval's midpoint,
safeguarded by the counts each step returns; a step after an accepted
correction reuses the previous step's twist, and the step that gives the
value and vector searches for its own.  An interval within the solve's
isolation tolerance, or too narrow to split, that still holds c >= 2
values is a cluster: one copy of its midpoint for each wanted index it
holds, inverse-iterated on the pencil.

Window solve (``count`` left out, B diagonal): every pair strictly inside a
finite value window (lo, hi).  This is the route of the radial operators,
whose mass is lumped.  Counts at the window's ends size the window, which
is open at both (the count at lo is taken below the next double up), its
block is every index inside it, and the isolation tolerance is
``_WINDOW_ABSTOL`` times the window's half-width.  The last twisted vector
z of a refined value gives the pair's, B^-1/2 z / ||z||, with the B^-1/2
the front end formed for T; every value of a
T that dsbtrd reduced is inverse-iterated on the pencil.  With ``lowest``
= k only the k lowest above the kernel threshold are wanted: counts at the
threshold and at hi size the window, an empty one ends the solve with no
refinement, and the block is its lowest min(k, inside) indices, so
bisection drops the upper half of the window at each count until the
block is isolated.

A chiral pencil (tridiagonal A with a zero diagonal, the interleaved Dirac
mode system) has a spectrum symmetric about 0, pair by pair: (lam, x) and
(-lam, S x) with S = diag((-1)^i).  For it and a symmetric window only the
positive half is counted and refined and the negative half is mirrored,
unless its sub-diagonal shows a zero eigenvalue, which has no mirror; then
the whole window is solved.  The positive half is the set of singular
values s of the m/2 x m/2 bidiagonal C that T's sub-diagonal forms (Golub
and Kahan), and C C^T = L D L^T with d = a^2 and l = b / a on C's diagonal
a and sub-diagonal b (Grosser and Lang, LAA 358, 2003): counts pass over
m/2 entries (19-21 against 36-38 microseconds for a dlaneg count of the
whole T at m = 3998, N = 2000, on 2 cores), and a twisted vector u of C C^T
gives v = s C^-1 u by one bidiagonal solve and the pair's vector from
(u, v) / sqrt 2.

Count solve (``count`` given, any banded B): the ``count`` eigenvalues
nearest a finite window with lo <= hi (default: nearest 0; any other is a
``ValueError``).  Counts at the window's ends give the candidates' index
block, the ``count`` on either side of the window and those inside it; the
fixed bracket [0, 2 (||T|| - tau)) holds every eigenvalue of the positive
definite L D L^T, the value stage isolates the block in it to the rounding
of its shifts and refines it, and the nearest ``count`` values are
inverse-iterated on the pencil.  ``method`` "auto" and "dense" both name
this route.  The iterative route runs only when named
(``method="iterative"``, any m, and ``count`` < m - 1, the route's own
contract; a larger count is a ``ValueError``, never a quiet switch to
bisection), on the window's centre sigma, in three stages.  Krylov: one
banded LU of A - sigma B, the one inverse iteration uses, grows a
B-orthonormal basis X from a deterministically seeded start by
w = (A - sigma B)^-1 B x, with B checked positive definite by dpbtrf and
its factor not used.  Rayleigh-Ritz: the eigenpairs of X A X^T (eigh) are
the pencil's Ritz pairs, and the basis grows until the ``count`` nearest
sigma pass Ericsson and Ruhe's residual estimate; a basis that reaches its
cap first raises ``SolverConvergenceError`` and returns no partial pairs.
Polish: one step of inverse iteration per Ritz vector at its value.

Inverse iteration, where it runs, is shifted inverse iteration on the
banded A - (lam + delta) B from seeded vectors (from the Ritz vectors, one
step each, on the iterative route), B-orthogonalized against the earlier
vectors of the same call.  Every route returns one shape: an array of
value estimates, a list of as many vectors and an array of as many slacks
(none of each for an empty window).  Every pair then passes
one gate, the pure function ``_certify``: the value is the vector's
Rayleigh quotient, formed once (in extended precision where it lies within
16 ulps of a window end, which it then decides), and a quotient further
than the slack from its estimate means the vector belongs to a
neighbouring eigenvalue, which raises ``SolverConvergenceError`` rather
than returning a duplicate or a stranger.  The slack of a window or count
value is 8 eps ||T|| on a scaled tridiagonal T and 64 eps ||T|| on any
reduced T (any other B by dsbgst, or a scaled T wider than tridiagonal by
dsbtrd), whose band reduction rounds its values further from the
quotients; a cluster's copy adds the isolation tolerance.  The iterative
route's Ritz values have an infinite slack.  A window solve's quotient on an
end is dropped, and every other pair must pass the residual certificate
below.

Every returned vector is B-orthonormal as its route returns it, and no
second pass touches it.  A twisted vector is B-normal by construction and
accurate to rounding over its value's relative gap.  Inverse iteration
B-orthogonalizes each iterate against the earlier vectors of its call and
B-normalizes it.  The chiral mirror S x keeps x's B-norm and B-products
exactly (S B S = B) and is an eigenvector of -lam, hence B-orthogonal to
the positive half.  The iterative route's vectors come out of inverse
iteration too.  Residuals ||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||) are
reported per pair and must stay below ``RESIDUAL_TOL`` or, where double
precision cannot certify that, a small multiple of the evaluation floor.
Where that denominator is below its own rounding, as at an exact zero
eigenvalue, the residual is taken against (||A|| + |lam| ||B||) ||x||
instead.  A non-finite vector or residual fails that certificate.

Every LAPACK routine is called one way: bound by ``_bind`` from scipy's
Cython LAPACK table, which is loaded from its extension file, so importing
this module imports neither ``scipy.linalg`` nor ``scipy.sparse``, and no
route imports anything later: the iterative route's Krylov basis runs on
the same bindings.
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
# the iterative route's Krylov basis stops once the residual estimate of
# each wanted Ritz pair is at most _RITZ_TOL, and fails past
# count + _KRYLOV_EXTRA vectors (or m).  Over 146 pencils (criterion 7's,
# the benchmark's, the lab's radial ones and shifts on an eigenvalue) it took
# count + 14 vectors in the median and count + 53 at most, on a pencil asked
# for 40 values; the most for a small count was count + 47, on a chiral
# pencil whose count-th nearest value is one of a pair +-lam at equal distance
_RITZ_TOL = 1e-6
_KRYLOV_EXTRA = 200
# a window interval narrower than this fraction of the window's half-width
# that still holds two or more eigenvalues is a cluster (copies of its
# midpoint, inverse-iterated); every isolated value is refined to rounding
# by Rayleigh iteration.
# Measured on 2 cores over intrinsic sweeps of both radial operators at
# L = 1..30, N = 400 and 2000: no interval reached it, the worst residual
# was 5.7e-11 (1.2e-10 with values bisected to this tolerance and
# inverse-iterated), and lambda_1^+ moved by at most 2.1e-12 relative.
_WINDOW_ABSTOL = 1e-8
_RQI_STEPS = 64  # Rayleigh steps per value before a SolverConvergenceError; 4-10 are taken
# a Rayleigh correction below this fraction of the shift leaves the next
# shift within rounding of the eigenvalue: its step is the last
_LAST_STEP = 2.0**-36
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
# n d lld sigma pivmin r; returns the count of eigenvalues below sigma
_dlaneg = _bind("dlaneg", _I, _P, _P, _D, _D, _I, restype=ctypes.c_int)
# n d e info
_dpttrf = _bind("dpttrf", _I, _P, _P, _I)
# n b1 bn lambda d l ld lld pivmin gaptol z wantnc negcnt ztz mingma r isuppz
# nrminv resid rqcorr work
_dlar1v = _bind(
    "dlar1v", _I, _I, _I, _D, _P, _P, _P, _P, _D, _D, _P, _I, _I, _D, _D, _I, _P, _D, _D,
    _D, _P,
)
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
_ONE = ctypes.c_int(1)  # also a leading dimension of an unreferenced array
_TWO = ctypes.c_int(2)
# the pivot dlar1v's NaN-safe pass puts for a tinier one; dlaneg leaves it unread
_PIVMIN = ctypes.c_double(np.finfo(float).tiny)
_NO_GAPTOL = ctypes.c_double(0.0)  # dlar1v then computes every entry of its vector
_TRUE = ctypes.c_int(1)  # a Fortran LOGICAL
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
    """B failed its route's factorization; ``pivot_index`` is 0-based.  A
    diagonal B names its first entry that is not positive, as dpbtrf does;
    another B the pivot of dpbtrf (the iterative route's check) or of dpbstf
    (count route), which factors the bottom half first and may name a later
    row."""

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


def _cholesky_or_raise(B: BandedSymmetric) -> None:
    """The iterative route's check that B is positive definite: a Cholesky
    factorization by dpbtrf, whose first non-positive pivot raises
    ``NotPositiveDefiniteError``.  The factor itself is not used."""
    ab = np.array(B.bands, order="F")  # dpbtrf factors in place
    n, kd, ld = ctypes.c_int(B.size), ctypes.c_int(B.bandwidth), ctypes.c_int(B.bandwidth + 1)
    info = ctypes.c_int(0)
    _dpbtrf(b"L", n, kd, ab.ctypes.data, ld, info)
    if info.value > 0:
        raise NotPositiveDefiniteError(info.value - 1)


def _inf_norm(A: BandedSymmetric) -> float:
    """max_i sum_j |A_ij|, summed in the order of A's matvec."""
    bands = np.abs(A.bands)
    rows = bands[0]  # summed in place: bands is this function's own copy
    m = A.size
    for k in range(1, A.bandwidth + 1):
        rows[k:] += bands[k, : m - k]
        rows[: m - k] += bands[k, : m - k]
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


def _inverse_iteration(A, B, vals, scale, seed, starts=None):
    """B-orthonormal vectors of the pencil at the estimates ``vals``.

    Shifted inverse iteration (A - (lam + offset) B) x' = B x with one banded
    LU per shift, each vector from its own seeded start, or, given
    ``starts`` (vectors already near their eigenvectors), one step from
    each of those instead of ``_INVERSE_ITERATIONS``.  ``scale`` is the
    spectral scale of the pencil.  The offset 4 eps (|lam| + eps scale) keeps
    the shifted matrix from being exactly singular where a value is exact (a
    diagonal pencil, or lam = 0) while staying a few ulps of lam, not of
    ||T||, off it: three steps certify even where ||T|| is 1e11 times lam.
    A zero offset (A = 0 at lam = 0) becomes 1, where any shift serves; a
    pivot the offset still leaves exactly zero becomes eps (scale + |lam|).
    Each solve's iterate grows like ||B|| over the shift's distance, so it is
    scaled by the power of 2 that brings its largest entry into [0.5, 1)
    before it is B-multiplied: exact, so results in range keep every bit,
    while a pencil whose entries lie near the ends of double range no longer
    overflows or underflows in x B x.  The iterate that starts a step is
    B-normal, of size about ||B||^-1/2, and its B-product is in range.
    Each iterate is B-orthogonalized against the earlier vectors so that
    repeated or clustered values get distinct vectors.  The starts differ
    because a shared one leaves the later members of a cluster nothing of
    their own eigenvectors but rounding, which three steps at a shift as
    coarse as a bisection estimate cannot amplify.  Whether a vector slid
    to another eigenvalue is judged by ``_certify``.
    """
    eps = np.finfo(float).eps
    m = A.size
    shifted = _ShiftedSolver(A, B)
    xs = np.empty((len(vals), m))  # rows, so that xs[:j] is contiguous
    steps = _INVERSE_ITERATIONS if starts is None else 1
    if starts is None:
        rng = np.random.default_rng(seed)
        starts = (rng.standard_normal(m) for _ in vals)
    for j, (lam, x) in enumerate(zip(vals, starts)):
        offset = 4.0 * eps * (abs(lam) + eps * scale) or 1.0
        shifted.factor(lam + offset, eps * (scale + abs(lam)))
        for _ in range(steps):
            x = shifted.solve(B.matvec(x))  # a fresh array, solved in place
            np.ldexp(x, -math.frexp(np.abs(x).max())[1], out=x)
            x -= (xs[:j] @ B.matvec(x)) @ xs[:j]
            nrm = math.sqrt(max(x @ B.matvec(x), 0.0))
            if not np.isfinite(nrm) or nrm == 0.0:
                raise SolverConvergenceError(math.inf)
            x /= nrm
        xs[j] = x
    return list(xs)


def _iterative_path(A, B, count, window, seed):
    """Estimates of the ``count`` eigenvalues nearest the window's centre
    sigma, their vectors and an infinite slack for each: shift-invert
    Krylov, then Rayleigh-Ritz on the pencil itself, then one step of
    inverse iteration per vector.

    B must pass dpbtrf (``_cholesky_or_raise``), the route's check that it
    is positive definite; the factor is not used.  A - sigma B is factored
    once by ``_ShiftedSolver``, which sets an exactly zero pivot (sigma an
    eigenvalue) to the rounding of the matrix's entries,
    eps (||A|| + |sigma| ||B||).

    Krylov: from a seeded start the B-orthonormal basis X grows by
    w = (A - sigma B)^-1 B x of its newest vector x, B-orthogonalized
    against X in two full passes and scaled by the power of 2 of its
    largest entry, exactly, as inverse iteration scales its iterates, so
    that w B w stays in range for a mass near 1e150 or 1e-150.  X and B X
    are kept as rows, and X A X^T gains a row per step.

    Rayleigh-Ritz: the Ritz pairs (theta, y = X^T s) are the eigenpairs of
    X A X^T (numpy's eigh), not of the inverted operator, whose products carry its
    rounding times ||(A - sigma B)^-1||, 1e13 where sigma lies on an
    eigenvalue.  The part of (A - sigma B)^-1 (A y - theta B y) outside the
    basis has B-norm |theta - sigma| beta |s_last|, with beta the B-norm of
    the orthogonalized w and s_last the Ritz vector's newest coordinate
    (after Ericsson and Ruhe, Math. Comp. 35, 1980).  The basis stops
    growing when that is at most ``_RITZ_TOL`` for the ``count`` Ritz pairs
    nearest sigma.  Unlike the pencil residual relative to ||A||, it sees
    the error along neighbouring eigenvectors where ||A|| dwarfs them;
    unlike the residual relative to ||A y||, it leaves out the rounding a
    shift on an eigenvalue spreads over the stiff end of the spectrum.  A
    basis of min(m, count + ``_KRYLOV_EXTRA``) vectors without that raises
    ``SolverConvergenceError`` with the worst estimate and returns no
    pairs.  A non-finite projection (a spectrum beyond double range) is a
    ``ValueError``.

    Polish: each Ritz vector takes one step of inverse iteration at its
    value (``_inverse_iteration``), which removes that rounding, takes the
    pair to the residual floor and B-orthonormalizes the vectors.  Ritz
    values have no bisection bound to hold them to."""
    m = A.size
    _cholesky_or_raise(B)
    norm_a, norm_b = _inf_norm(A), _inf_norm(B)
    center = 0.5 * (window[0] + window[1])
    cap = min(m, count + _KRYLOV_EXTRA)
    X, BX = np.empty((cap, m)), np.empty((cap, m))
    G = np.empty((cap, cap))  # X A X^T
    w = np.random.default_rng(seed).standard_normal(m)
    worst = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = _ShiftedSolver(A, B)
        shifted.factor(center, np.finfo(float).eps * (norm_a + abs(center) * norm_b))
        for n in range(cap + 1):  # n vectors in the basis
            for _ in range(2):
                w -= (BX[:n] @ w) @ X[:n]
            e = math.frexp(np.abs(w).max())[1]
            np.ldexp(w, -e, out=w)  # scaled by 2^-e, exactly, so that w B w is in range
            bw = B.matvec(w)
            beta = math.sqrt(max(w @ bw, 0.0))
            if not math.isfinite(beta):
                raise ValueError("array must not contain infs or NaNs")
            last = n == cap or beta == 0.0  # the basis can grow no further
            if n >= count:
                if not np.isfinite(G[:n, :n]).all():
                    raise ValueError("array must not contain infs or NaNs")
                ritz, Z = np.linalg.eigh(G[:n, :n])
                near = np.sort(np.argsort(np.abs(ritz - center), kind="stable")[:count])
                theta, S = ritz[near], Z[:, near]
                # beta is the B-norm of w scaled by 2^-e
                estimate = np.abs(theta - center) * np.ldexp(beta, e) * np.abs(S[n - 1])
                worst = float(estimate.max())
                if worst <= _RITZ_TOL:
                    break
            if last:
                raise SolverConvergenceError(worst)
            np.divide(w, beta, out=X[n])
            np.divide(bw, beta, out=BX[n])
            G[n, : n + 1] = G[: n + 1, n] = X[: n + 1] @ A.matvec(X[n])
            w = shifted.solve(BX[n].copy())
    vectors = _inverse_iteration(A, B, theta, norm_a / norm_b, seed, starts=S.T @ X[:n])
    return theta, vectors, np.full(count, math.inf)


def _scaled_standard(A, B):
    """For a diagonal B: a tridiagonal T with the eigenvalues of
    B^-1/2 A B^-1/2, the inf-norm of that scaled band, which bounds them,
    and the diagonal of B^-1/2.  B's first entry that is not positive raises
    ``NotPositiveDefiniteError`` at its index, as dpbtrf would."""
    m = A.size
    bad = np.flatnonzero(B.bands[0] <= 0.0)
    if bad.size:
        raise NotPositiveDefiniteError(int(bad[0]))
    s = 1.0 / np.sqrt(B.bands[0])
    with np.errstate(over="ignore"):  # an overflow is caught by the scale's check
        T = A.bands * s
        for k in range(A.bandwidth + 1):
            T[k, : m - k] *= s[k:]
        scale = _inf_norm(BandedSymmetric(T))
    return _tridiagonal(T), scale, s


def _reduced_standard(A, B):
    """A symmetric tridiagonal T with the eigenvalues of the pencil, for a B
    that is not diagonal, in lower band storage, and its inf-norm.

    The reduction is the one inside LAPACK dsbgvx: B = S^T S by a split
    Cholesky factorization (dpbstf), A to the band matrix X^T A X with the
    same eigenvalues (dsbgst, Crawford's algorithm) and that to tridiagonal
    form (dsbtrd), with no transformation accumulated and no m x m array."""
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


def _standard_form(A, B, diagonal):
    """The window and count routes' one front end: a tridiagonal T with the
    pencil's eigenvalues, a bound ``scale`` on them (the inf-norm of the
    scaled band, or of a general pencil's reduced tridiagonal), whether
    T was band-reduced (B not ``diagonal``, or a scaled T wider than
    tridiagonal), which sets its values' slack and whether their twisted
    vectors serve, and the diagonal of B^-1/2 (None for a B that is not
    diagonal), which maps a twisted vector to the pencil's.  Only a B that
    is not diagonal is factored, once, by dpbstf inside its reduction.  A
    scaling or reduction that overflows is a ``ValueError``."""
    if diagonal:
        T, scale, s = _scaled_standard(A, B)
    else:
        (T, scale), s = _reduced_standard(A, B), None
    if not math.isfinite(scale):
        raise ValueError("array must not contain infs or NaNs")
    reduced = not diagonal or A.bandwidth > 1
    return T, scale, reduced, s


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


class _Twisted:
    """One L D L^T of a tridiagonal matrix, which serves all of a window or
    count solve: its counts, its values and its twisted vectors (Dhillon and Parlett,
    LAA 387, 2004).

    ``d`` holds the pivots D, all positive, ``l`` the sub-diagonal of the
    unit lower bidiagonal L, and ``ld`` = l d and ``lld`` = l^2 d are what
    LAPACK dlaneg and dlar1v read besides.  A positive definite L D L^T
    determines its eigenvalues to high relative accuracy, and both routines
    work on it with relative accuracy.  Subclasses map a value x of T to the
    eigenvalue ``rep(x)`` of L D L^T that stands for it, back by ``value``,
    and a unit eigenvector of L D L^T to the pencil's (``vector``).

    An exactly 0 pivot next to lld_i = 0 makes dlaneg's next step inf * 0, a
    NaN that loses the next pivot's sign (a 2x2-block pencil counted at a
    block's value read one low).  So the matrix is counted and refined in
    pieces, cut where lld_i is 0 (exactly or by underflow), which decouples
    them; a radial mode pencil has one piece."""

    def __init__(self, d, l):
        self.d, self.l = d, l
        self.ld = l * d[:-1]
        self.lld = self.ld * l
        cuts = [0, *(np.flatnonzero(self.lld == 0.0) + 1).tolist(), d.size]
        self.pieces = [
            (start, stop, ctypes.c_int(stop - start),
             *(v.ctypes.data + v.itemsize * start for v in (d, l, self.ld, self.lld)))
            for start, stop in zip(cuts, cuts[1:])
        ]

    def count(self, mu):
        """Number of eigenvalues of L D L^T below mu: a dlaneg count per
        piece, with the twist index at the piece's end, which is the plain
        top-down pass.  A pivot that is exactly 0 counts as positive, so an
        eigenvalue on mu is left out."""
        mu = ctypes.c_double(mu)
        return sum(_dlaneg(n, d, lld, mu, _PIVMIN, n) for _, _, n, d, _, _, lld in self.pieces)

    def _piece(self, left, right, n_left):
        """The piece that holds the one eigenvalue of L D L^T in
        [left, right), and the number of that piece's eigenvalues below left."""
        if len(self.pieces) == 1:
            return self.pieces[0], n_left
        for piece in self.pieces:
            _, _, n, d, _, _, lld = piece
            k = _dlaneg(n, d, lld, ctypes.c_double(left), _PIVMIN, n)
            if _dlaneg(n, d, lld, ctypes.c_double(right), _PIVMIN, n) > k:
                return piece, k
        raise SolverConvergenceError(math.inf)  # the counts of T and its pieces disagree

    def refine(self, left, right, n_left):
        """The one eigenvalue of L D L^T in [left, right), with ``n_left``
        below left, as the value of T it stands for, and its unit
        eigenvector.

        Rayleigh quotient iteration on twisted factorizations, from the
        interval's midpoint.  Each dlar1v step at a shift mu returns the
        twisted vector z, the correction that takes mu to z's Rayleigh
        quotient and the count of eigenvalues below mu, which moves one end
        of the interval to mu.  An iterate that would leave the interval is
        replaced by its midpoint, a bisection step, so the iteration keeps
        to the value its counts isolated.  It stops when the correction or
        the interval is within 2 eps of mu, or one step after a correction
        below ``_LAST_STEP`` of mu, which leaves the next shift within
        rounding of the eigenvalue; ``SolverConvergenceError`` ends
        ``_RQI_STEPS`` steps without that.

        A step after an accepted Rayleigh correction reuses the previous
        step's twist index r, which skips dlar1v's search for the twist
        where the inverse's diagonal is largest: 40-43 against 68-82
        microseconds a step at n = 2000 (2 vCPUs).  The first step and every
        step after a bisection step search (r = 0): a twist found at a shift
        far from the eigenvalue can sit where its eigenvector is small, and
        reused through bisection steps it stalled the iteration for up to 40
        steps on random indefinite pencils.  Any twist gives the same count,
        but a stale one gives a less accurate vector, so the step whose value
        and vector are returned searches afresh at its shift.  That is the
        step after a ``_LAST_STEP`` correction, known in advance; a stop that
        a step at a reused twist shows repeats that step with r = 0."""
        (start, stop, n, d, l, ld, lld), k = self._piece(left, right, n_left)
        z, work, support = np.empty(n.value), np.empty(4 * n.value), np.empty(2, np.int32)
        z_p, work_p, support_p = z.ctypes.data, work.ctypes.data, support.ctypes.data
        negcnt, r = ctypes.c_int(0), ctypes.c_int(0)
        ztz, mingma, nrminv, resid, rqcorr = (ctypes.c_double(0.0) for _ in range(5))

        def twisted(mu, search):
            """One dlar1v step at mu: at the twist r of the step before, or
            with ``search`` where the inverse's diagonal is largest."""
            if search:
                r.value = 0
            _dlar1v(
                n, _ONE, n, ctypes.c_double(mu), d, l, ld, lld, _PIVMIN, _NO_GAPTOL, z_p, _TRUE,
                negcnt, ztz, mingma, r, support_p, nrminv, resid, rqcorr, work_p,
            )
            return rqcorr.value

        tol = 2.0 * np.finfo(float).eps
        mu = 0.5 * (left + right)
        last, bisected = False, True  # the midpoint start searches like a bisection step
        for _ in range(_RQI_STEPS):
            fresh = bisected or last
            step = twisted(mu, fresh)
            if negcnt.value > k:
                right = mu
            else:
                left = mu
            if last or abs(step) <= tol * mu or right - left <= tol * mu:
                if not fresh:
                    step = twisted(mu, True)
                y = np.zeros(self.d.size)
                y[start:stop] = z * nrminv.value
                return self.value(mu + step), y
            bisected = not left < mu + step < right
            if bisected:
                last = False
                mu = 0.5 * (left + right)
            else:
                # the error of the next shift is about this correction squared
                last = abs(step) <= _LAST_STEP * mu
                mu += step
        raise SolverConvergenceError(math.inf)


class _HalfBidiagonal(_Twisted):
    """The positive half of a chiral T's spectrum, on a bidiagonal of half
    T's size.

    A tridiagonal T of even size m = 2p with a zero diagonal and sub-diagonal
    e is, with its even rows and columns ordered first, [[0, C], [C^T, 0]]
    for the p x p lower bidiagonal C with diagonal a = e[0::2] and
    sub-diagonal b = e[1::2], so its eigenvalues are +- the singular values
    of C (Golub and Kahan 1965), and C C^T = L D L^T with d = a^2 and
    l = b / a (Grosser and Lang, LAA 358, 2003).  An eigenvalue x of T
    stands as (x / scale)^2: T is divided by ``scale``, a bound on its
    entries, first, so that no square overflows.  A unit eigenvector u of
    C C^T for sigma^2 is a left singular vector; the right one is
    v = sigma C^-1 u, one bidiagonal solve, and the interleaved (u, v) / sqrt 2
    is T's eigenvector.  v = C^T u / sigma would amplify the rounding of u by
    ||C|| / sigma; sigma C^-1 u damps the parts of u along larger singular
    values, which hold the rounding near the bottom of the spectrum."""

    def __init__(self, d, a, b, scale):
        super().__init__(d, b[:-1] / a[:-1])
        self.a, self.b, self.scale = a, b, scale

    def rep(self, x):
        return (x / self.scale) ** 2

    def value(self, mu):
        return self.scale * math.sqrt(mu)

    def vector(self, u, value, s):
        """The pencil's B-unit eigenvector for +value, from u, with s = B^-1/2."""
        v = u * (value / self.scale)
        band = np.array([self.a, self.b], order="F")  # C in dtbtrs's lower band storage
        p, info = ctypes.c_int(u.size), ctypes.c_int(0)
        _dtbtrs(b"L", b"N", b"N", p, _ONE, _ONE, band.ctypes.data, _TWO, v.ctypes.data, p, info)
        y = np.empty(2 * u.size)
        y[0::2], y[1::2] = u, v
        y *= s
        y *= math.sqrt(0.5)
        return y


def _chiral_half(T, scale):
    """The ``_HalfBidiagonal`` of a chiral T, or None where an even
    sub-diagonal entry is zero or its scaled square underflows to 0: then T
    has a zero eigenvalue, which has no mirror (its determinant is
    (-1)^(m/2) prod e[0::2]^2)."""
    a = T[1, 0::2] / scale
    d = a * a
    if not d.all():
        return None
    return _HalfBidiagonal(d, a, T[1, 1::2] / scale, scale)


class _ShiftedTridiagonal(_Twisted):
    """T - tau I = L D L^T by LAPACK dpttrf, with tau = 0 where T is positive
    definite (every scalar mode pencil of the lab) and tau = -2 ||T||inf
    otherwise, which keeps T - tau I at least ||T||inf from singular.  An
    eigenvalue x of T stands as x - tau, and a unit eigenvector y of
    L D L^T gives the pencil's B^-1/2 y."""

    def __init__(self, T, scale):
        m = ctypes.c_int(T.shape[1])
        info = ctypes.c_int(0)
        # the second shift always factors: T - tau I then has its
        # eigenvalues in [||T||inf, 3 ||T||inf] (or is I where T = 0)
        for tau in (0.0, -2.0 * scale or -1.0):
            d, e = T[0] - tau, T[1, :-1].copy()  # dpttrf factors in place
            _dpttrf(m, d.ctypes.data, e.ctypes.data, info)
            if info.value == 0:
                break
        super().__init__(d, e)
        self.tau = tau

    def rep(self, x):
        return x - self.tau

    def value(self, mu):
        return mu + self.tau

    def vector(self, y, value, s):
        return y * s


def _isolate(count, a, b, n_a, n_b, narrow, first, stop):
    """Intervals (x, y, n_x, n_y), ascending, of the eigenvalues in [a, b)
    that hold one numbered first..stop-1 (ascending, from 0), by bisection
    on ``count``: n_x is count(x), the number below x, and each interval
    holds one eigenvalue or is a cluster, which ``narrow(x, y)`` says is
    within the bisection tolerance, with c >= 2.  An interval without such a
    number is dropped unsplit.  A count outside its interval's end counts is
    clamped to them, as LAPACK's dlaebz does, never to first..stop: that
    would make an interval of three values look isolated."""
    found = []
    todo = [(a, b, n_a, n_b)]
    while todo:
        x, y, n_x, n_y = todo.pop()  # the lowest interval left
        if n_x >= n_y or n_y <= first or n_x >= stop:
            continue
        mid = 0.5 * (x + y)
        if n_y - n_x == 1 or narrow(x, y) or not x < mid < y:
            found.append((x, y, n_x, n_y))
            continue
        n_mid = min(max(count(mid), n_x), n_y)
        todo += [(mid, y, n_mid, n_y), (x, mid, n_x, n_mid)]
    return found


def _refined_values(rep, a, b, n_a, n_b, first, stop, tol, reduced, scale):
    """Values, unit twisted vectors and slacks of the eigenvalues of
    ``rep`` numbered first..stop-1 (ascending, from 0) in the bracket
    [a, b), which has n_a below a and n_b below b: the one value stage of
    window and count solves.

    ``_isolate`` bisects the bracket to intervals within ``tol`` in values
    of T.  An isolated value is refined by ``rep.refine``.  Its slack is
    8 eps ||T|| where T is the scaled pencil itself and 64 eps ||T|| where T
    was ``reduced`` (by dsbgst or dsbtrd): the reduction moves the values
    off the pencil's quotients by up to 28.3 eps ||T|| (114,525 values of
    random bandwidth-2 pencils, m = 20..598).  A cluster gives one copy of
    its interval's midpoint for each index of the block it holds, with no
    twisted vector and ``tol`` added to its slack.  The values and slacks
    are arrays."""

    def narrow(x, y):
        return rep.value(y) - rep.value(x) <= tol

    base = (64.0 if reduced else 8.0) * np.finfo(float).eps * scale
    vals, twisted, slack = [], [], []
    for x, y, n_x, n_y in _isolate(rep.count, a, b, n_a, n_b, narrow, first, stop):
        if n_y - n_x == 1:
            value, z = rep.refine(x, y, n_x)
            vals.append(value)
            twisted.append(z)
            slack.append(base)
        else:
            copies = min(n_y, stop) - max(n_x, first)
            vals += [rep.value(0.5 * (x + y))] * copies
            twisted += [None] * copies
            slack += [tol + base] * copies
    return np.array(vals), twisted, np.array(slack)


def _window_path(A, B, window, seed, lowest):
    """Pairs strictly inside the window of a pencil with diagonal B: all of
    them, or with ``lowest`` = k the k lowest above the kernel threshold
    1e-8 max(|lo|, |hi|).

    A chiral pencil (tridiagonal A with a zero diagonal, as the interleaved
    Dirac mode system is) satisfies S A S = -A and S B S = B with
    S = diag((-1)^i), so each pair (lam, x) comes with (-lam, S x).  For such
    a pencil and a symmetric window only the half (0, hi) is counted and
    refined, on ``_HalfBidiagonal`` (with ``lowest``, its k lowest), and
    each pair is returned with its mirror.  A zero eigenvalue has no mirror:
    where T holds one (see ``_chiral_half``), the whole window is solved as
    for any pencil, on ``_ShiftedTridiagonal``.  A refined value's twisted
    vector gives the pencil's where T is the scaled pencil itself; a
    cluster's copies, and every value of a T that dsbtrd ``reduced``, are
    inverse-iterated on the pencil.  Returns the estimates, their vectors
    and the slack within which each vector's quotient must stay of its
    estimate, none of each for an empty window, for which T is built too,
    so that a B that is not positive definite raises.
    """
    lo, hi = window
    m = A.size
    T, scale, reduced, s = _standard_form(A, B, True)
    if not lo < hi:
        return np.empty(0), [], np.empty(0)
    # the count inside the window is exact whatever abstol is
    abstol = _WINDOW_ABSTOL * max(abs(lo), abs(hi))
    chiral = A.bandwidth == 1 and lo == -hi and m % 2 == 0 and not A.bands[0].any()
    rep = _chiral_half(T, scale) if chiral and scale > 0.0 else None
    chiral = rep is not None
    # counts, bisection and refinement run on the eigenvalues mu of L D L^T;
    # the window is open at both ends, so the count at lower is the count
    # below the next double up, and the count at hi leaves out a value on it
    if chiral:
        lower, below = 0.0, 0  # the chiral half counts up from 0
    else:
        rep = _ShiftedTridiagonal(T, scale)
        lower = lo if lowest is None else max(lo, 1e-8 * max(abs(lo), abs(hi)))
        lower = np.nextafter(rep.rep(lower), np.inf)
        below = rep.count(lower)
    top = rep.rep(hi)
    inside = rep.count(top) - below
    if inside <= 0:
        return np.empty(0), [], np.empty(0)
    stop = below + (inside if lowest is None else min(lowest, inside))
    vals, twisted, slack = _refined_values(
        rep, lower, top, below, below + inside, below, stop, abstol, reduced, scale
    )
    vectors = [
        None if reduced or z is None else rep.vector(z, value, s)
        for value, z in zip(vals, twisted)
    ]
    todo = [j for j, x in enumerate(vectors) if x is None]
    if todo:
        for j, x in zip(todo, _inverse_iteration(A, B, vals[todo], scale, seed)):
            vectors[j] = x
    if chiral:
        vals = np.concatenate([vals, -vals])
        for x in vectors[:]:
            mirror = x.copy()
            mirror[1::2] *= -1.0  # S x
            vectors.append(mirror)
        slack = np.concatenate([slack, slack])
    return vals, vectors, slack


def _nearest_path(A, B, count, window, seed, diagonal):
    """Estimates of the ``count`` eigenvalues nearest the window (lo, hi),
    their vectors and the slack of each estimate.

    Counts of the ``_ShiftedTridiagonal`` of the front end's T
    (``_standard_form``) at lo and hi give the index block of the
    ``count`` on either side of the window and those inside it, which holds
    the nearest ``count``.  The bracket is [0, 2 (||T|| - tau)): L D L^T is
    positive definite with its eigenvalues at most ||T|| - tau, so none lies
    below 0 and all m lie below the top.  The top's count is checked: a top
    that overflows, where ||T|| is within a factor 6 of the largest double,
    counts fewer, which is ``SolverConvergenceError``.

    The value stage isolates the block with no tolerance, so only values
    equal to the rounding of their shifts form a cluster.  A tolerance
    relative to ||T|| would merge the low values of a stiff pencil:
    4 eps ||T|| is 1.5e8 on a Paneitz n=5 covariance pencil at N = 2000
    whose lowest values are 4.4, 17 and 72.  The nearest ``count`` values
    are inverse-iterated on the pencil.  Their twisted vectors would be
    accurate over the relative gaps of L D L^T, which for an indefinite T
    are those of T + 2 ||T|| I: on the Dirac cross-check pencils
    (L = 0..8, N = 500..2000) they left residuals up to 1.2e-8."""
    lo, hi = window
    m = A.size
    T, scale, reduced, _ = _standard_form(A, B, diagonal)
    rep = _ShiftedTridiagonal(T, scale)
    n_lo = rep.count(rep.rep(lo))
    n_hi = n_lo if hi == lo else rep.count(rep.rep(hi))
    first, stop = max(n_lo - count, 0), min(n_hi + count, m)
    top = 2.0 * rep.rep(scale)
    if rep.count(top) != m:  # counts no L D L^T of T can give
        raise SolverConvergenceError(math.inf)
    vals, _, slack = _refined_values(rep, 0.0, top, 0, m, first, stop, 0.0, reduced, scale)
    i0, i1 = _select_nearest(vals, count, window)
    vals = vals[i0 : i1 + 1]
    return vals, _inverse_iteration(A, B, vals, scale, seed), slack[i0 : i1 + 1]


def _certify(A, B, estimates, vectors, slack, window=None):
    """The pairs of the routes' ``vectors``, sorted by value, or
    ``SolverConvergenceError``: the one gate of every solve.

    Each pair's value is its vector's Rayleigh quotient, formed once.  A
    ``window`` is given for window solves alone, whose ends are open: a
    quotient within 16 ulps of an end is formed again in extended
    precision, whose rounding decides between inside and on the end.  A
    quotient further than its ``slack`` from its estimate means the vector
    slid to a neighbouring eigenvalue, and raises with an infinite
    residual.  A quotient on or beyond a window end is then dropped.  Every
    other pair must pass the residual certificate (``_certificate``), below
    ``RESIDUAL_TOL`` or 32 times its floor; the worst residual that does not
    is raised."""
    if not vectors:
        return []  # an empty window: no pair to certify, so no norm to take
    pairs = []
    failed = []
    norm_a, norm_b = _inf_norm(A), _inf_norm(B)
    near = 16.0 * np.finfo(float).eps
    for estimate, vec, tol in zip(estimates, vectors, slack):
        ax, bx = A.matvec(vec), B.matvec(vec)
        lam = float(vec @ ax) / float(vec @ bx)
        if window is not None and min(abs(lam - end) for end in window) <= near * abs(lam):
            wide = vec.astype(np.longdouble)
            lam = float((wide @ ax) / (wide @ bx))
        if not abs(lam - estimate) <= tol:  # a NaN quotient fails too
            raise SolverConvergenceError(math.inf)
        if window is not None and not window[0] < lam < window[1]:
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
    (possibly none), judged by the quotient returned, which can lie on an
    end that the estimate lies inside.  This needs a diagonal B and a window
    with finite ends; one with lo >= hi is empty.
    With ``lowest`` = k as well: only the k lowest pairs inside the window
    and above the kernel threshold tau = 1e-8 max(|lo|, |hi|), or all of
    them if there are fewer; a chiral pencil returns the k lowest of
    (0, hi), each with its mirror.

    With ``count``: the ``count`` pairs nearest the window (default: nearest
    0).  ``method`` is "auto" or its synonym "dense" (the value engine on
    the scaled or band-reduced pencil, then inverse iteration) or
    "iterative" (shift-invert Krylov, Rayleigh-Ritz on the pencil, then one
    inverse-iteration step per vector), which needs ``count`` < m - 1 and
    raises ``ValueError`` otherwise.

    A or B with a NaN or an inf is a ``ValueError`` on every route, and
    every route's pairs pass one gate, ``_certify``.
    """
    m = A.size
    if B.size != m:
        raise ValueError("A and B sizes differ")
    diagonal = not np.any(B.bands[1:])
    if count is None:
        if window is None or not diagonal:
            raise ValueError("a solve without count needs a window and a diagonal B")
        if not (math.isfinite(window[0]) and math.isfinite(window[1])):
            raise ValueError(f"a window solve needs a finite window, got {window}")
        if method != "auto":
            raise ValueError("method applies to solves with a count")
        if lowest is not None and lowest < 1:
            raise ValueError("lowest must be at least 1")
    elif lowest is not None:
        raise ValueError("lowest applies to solves without a count")
    elif count < 1:
        raise ValueError("count must be at least 1")
    elif window is not None and not -math.inf < window[0] <= window[1] < math.inf:
        raise ValueError(f"a count solve needs a finite window with lo <= hi, got {window}")
    elif method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    elif method == "iterative" and count >= m - 1:
        raise ValueError(f"method 'iterative' needs count < m - 1 = {m - 1}, got {count}")
    if not (np.isfinite(A.bands).all() and np.isfinite(B.bands).all()):
        raise ValueError("array must not contain infs or NaNs")
    if count is None:
        return _certify(A, B, *_window_path(A, B, window, seed, lowest), window)
    window = (0.0, 0.0) if window is None else window  # nearest 0
    if method == "iterative":
        return _certify(A, B, *_iterative_path(A, B, count, window, seed))
    return _certify(A, B, *_nearest_path(A, B, min(count, m), window, seed, diagonal))


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
