"""The three conformally covariant operators, assembled per angular mode.

Covariance path.  A conformal rescaling g -> f^2 g conjugates an operator of
order k by powers of f: u is an eigensection for f^2 g with eigenvalue lam
iff w = f^((n-k)/2) u solves P_round w = lam f^k w.  The round-sphere radial
operator is assembled once and the conformal factor enters only through the
f^k-weighted mass, so the same machinery validates against the exact round
spectra.

Every mass B is diagonal.  The scalar operators lump the P1 mass (row sums,
an O(h^2) change of the discretization, made identically on both paths so
the dual-path check compares like with like); the Dirac mass is diagonal by
construction.  A diagonal B lets the eigensolver turn each pencil into a
banded standard problem.

Intrinsic path.  The operator is assembled directly in the warped metric
dt^2 + h^2 g_{S^(n-1)}:

  * conformal Laplacian: weak form p = h^(n-1),
    q = h^(n-1) [ l(l+n-2)/h^2 + (n-2)/(4(n-1)) Scal(t) ], lumped
    unit-weight mass against the warped measure h^(n-1) dt.  p, q and the
    mass weight are array arithmetic on samples of h, h' and h'' at the
    grid's quadrature points;
  * Dirac (n = 2, bounding spin structure, half-integer angular modes k):
    the 2x2 first-order system [[0, X], [X*, 0]] with
    X = d/dt + h'/(2h) - k/h, self-adjoint in L^2(h dt).  The two spinor
    components live on staggered grids (values on nodes, partner on cell
    midpoints), which eliminates the spurious doubled modes a collocated
    first-order discretization would produce.  One endpoint value of the
    node component is pinned to zero (left pole for k > 0, right for k < 0)
    to match the regular Frobenius branch a ~ dist^(|k|+1/2).

A row of modes shares one ``IntrinsicRecord``: the samples of h, h' and h''
every mode of the operator reads, taken in one ``WarpedData.jet`` call, so
the arclength inverse runs once per row instead of once or more per mode.
A mode enters only through its angular eigenvalue and its pinned ends.

The fourth-order Paneitz operator is assembled on the covariance path only,
as K D^-1 K + a K + c M with K the radial Laplacian stiffness, D the lumped
round mass and (a, c) its round-sphere Einstein coefficients; the product
keeps bandwidth 2, and B is the lumped f^4-weighted mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from confspec.geometry import ConformalProfile, WarpedData, warped_curvature
from confspec.grid import (
    BandedSymmetric,
    RadialGrid,
    WeakForm1D,
    assemble_sampled,
    assemble_weak_form,
    quadrature_points,
)

__all__ = [
    "OperatorKind",
    "ModeSpec",
    "AssembledOperator",
    "conformal_laplacian",
    "paneitz_operator",
    "dirac_operator",
    "cylinder_threshold",
    "paneitz_constants",
    "mode_multiplicity",
    "make_mode",
    "covariance_reduce",
    "IntrinsicRecord",
    "intrinsic_record",
    "intrinsic_assemble",
]

KIND_L = "conformal-laplacian"
KIND_PANEITZ = "paneitz"
KIND_DIRAC = "dirac"

_ORDERS = {KIND_L: 2, KIND_PANEITZ: 4, KIND_DIRAC: 1}


@dataclass(frozen=True)
class OperatorKind:
    """One of the implemented conformally covariant operators on S^n."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in _ORDERS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == KIND_L and self.n < 3:
            raise ValueError("conformal Laplacian requires dimension n >= 3")
        if self.kind == KIND_PANEITZ and self.n < 5:
            raise ValueError("Paneitz operator requires dimension n >= 5")
        if self.kind == KIND_DIRAC and self.n != 2:
            raise ValueError("Dirac operator is implemented for n = 2 only")

    @property
    def order(self) -> int:
        return _ORDERS[self.kind]


def conformal_laplacian(n: int) -> OperatorKind:
    return OperatorKind(KIND_L, n)


def paneitz_operator(n: int) -> OperatorKind:
    return OperatorKind(KIND_PANEITZ, n)


def dirac_operator(n: int = 2) -> OperatorKind:
    return OperatorKind(KIND_DIRAC, n)


def cylinder_threshold(op: OperatorKind) -> float:
    """Bottom of the absolute spectrum on the standard cylinder S^(n-1) x R."""
    n = op.n
    if op.kind == KIND_L:
        return (n - 2) ** 2 / 4.0
    if op.kind == KIND_PANEITZ:
        return (n - 4) * n**2 / 8.0
    return (n - 1) / 2.0


def paneitz_constants(n: int) -> tuple[float, float]:
    """Round-sphere coefficients (a, q_const) of the Paneitz operator.

    With Einstein data Scal = n(n-1), Ric = (n-1) g, |Ric|^2 = n(n-1)^2 the
    second-order tensor term reduces to a multiple of the Laplacian,
    -div(A du) = a Lap u with a = (n^2 - 2n - 4)/2, and the curvature scalar
    becomes q_const = n(n^2 - 4)/8, so modewise

        P = Lap^2 + a Lap + (n-4)/2 * q_const .
    """
    if n < 5:
        raise ValueError("Paneitz constants require dimension n >= 5")
    a = (n * n - 2 * n - 4) / 2.0
    q_const = n * (n * n - 4) / 8.0
    return a, q_const


@dataclass(frozen=True)
class ModeSpec:
    """Angular mode of the cross-section S^(n-1).

    ``index`` is the harmonic degree l >= 0 for the scalar operators and a
    half-integer Fourier index for the surface Dirac operator (bounding spin
    structure, so integer indices are excluded).
    """

    index: float
    angular_eigenvalue: float
    multiplicity: int


def mode_multiplicity(op: OperatorKind, index: float) -> int:
    """Multiplicity an eigenvalue of this radial mode carries globally."""
    n = op.n
    if op.kind == KIND_DIRAC:
        if float(2 * index) != int(2 * index) or int(2 * index) % 2 == 0:
            raise ValueError("Dirac modes are half-integers")
        return 1
    ell = int(index)
    if ell != index or ell < 0:
        raise ValueError("harmonic degree must be a nonnegative integer")
    # dim of degree-l spherical harmonics on S^(n-1)
    if ell == 0:
        return 1
    if ell == 1:
        return n
    return math.comb(n + ell - 1, ell) - math.comb(n + ell - 3, ell - 2)


def make_mode(op: OperatorKind, index: float) -> ModeSpec:
    mult = mode_multiplicity(op, index)
    if op.kind == KIND_DIRAC:
        angular = float(index)
    else:
        angular = float(index * (index + op.n - 2))
    return ModeSpec(index=float(index), angular_eigenvalue=angular, multiplicity=mult)


@dataclass(frozen=True)
class AssembledOperator:
    """Generalized pair A x = lambda B x for one angular mode."""

    A: BandedSymmetric
    B: BandedSymmetric
    mode: ModeSpec
    path: str  # "covariance" | "intrinsic"
    grid: RadialGrid


def _scalar_constant_term(n: int) -> float:
    # (n-2)/(4(n-1)) * Scal(round S^n) with Scal = n(n-1)
    return n * (n - 2) / 4.0


def _round_radial_forms(n: int, angular: float, weight_fn, extra_q: float):
    def p(r):
        return np.sin(r) ** (n - 1)

    def q(r):
        s = np.sin(r)
        return (angular / s**2 + extra_q) * s ** (n - 1)

    def w(r):
        return weight_fn(r) * np.sin(r) ** (n - 1)

    return p, q, w


def _lumped(mass: BandedSymmetric) -> np.ndarray:
    """Row sums of a banded mass: the diagonal of its lumped form."""
    m = mass.size
    d = mass.bands[0].copy()
    for k in range(1, mass.bandwidth + 1):
        band = mass.bands[k, : m - k]
        d[k:] += band
        d[: m - k] += band
    return d


def _assemble_lumped(
    form: WeakForm1D, grid: RadialGrid
) -> tuple[BandedSymmetric, BandedSymmetric]:
    A, M = assemble_weak_form(form, grid)
    return A, BandedSymmetric.from_diagonal(_lumped(M))


def _banded_from_sparse(mat: sp.spmatrix, bandwidth: int) -> BandedSymmetric:
    mat = mat.tocsr()
    m = mat.shape[0]
    bands = np.zeros((bandwidth + 1, m))
    for d in range(bandwidth + 1):
        bands[d, : m - d] = mat.diagonal(-d)
    return BandedSymmetric(bands)


def _midpoints(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t[:-1] + t[1:])


def _dirac_staggered(
    t_nodes: np.ndarray,
    h_nodes: np.ndarray,
    h_mids: np.ndarray,
    dh_mids: np.ndarray,
    k: float,
    weight_fn=None,
) -> tuple[BandedSymmetric, BandedSymmetric]:
    """Staggered first-order mode system, interleaved to bandwidth 1.

    Node component a and midpoint component b; the adjoint difference stencil
    is centered at the midpoints, so the scheme is second order and the block
    matrix [[0, G^T], [G, 0]] is symmetric by construction.  ``h_nodes``
    holds h at the nodes, ``h_mids`` and ``dh_mids`` hold h and h' at the
    cell midpoints; the mass weight is ``weight_fn``, or 1 when it is None.
    """
    t = np.asarray(t_nodes, dtype=float)
    mids = _midpoints(t)
    dl = np.diff(t)
    hm = h_mids
    ctil = dh_mids / (2.0 * hm) + k / hm
    hb = hm * dl
    g_here = hb * (1.0 / dl - 0.5 * ctil)  # coefficient on a_j
    g_next = -hb * (1.0 / dl + 0.5 * ctil)  # coefficient on a_{j+1}

    delta = np.empty(t.size)
    delta[1:-1] = mids[1:] - mids[:-1]
    delta[0] = mids[0] - t[0]
    delta[-1] = t[-1] - mids[-1]
    w_nodes, w_mids = (1.0, 1.0) if weight_fn is None else (weight_fn(t), weight_fn(mids))
    mass_a = w_nodes * h_nodes * delta
    mass_b = w_mids * hb

    nb = t.size - 1
    size = 2 * nb
    diag = np.zeros(size)
    sub = np.empty(size - 1)
    bdiag = np.empty(size)
    if k > 0:
        # order [b_0, a_1, b_1, a_2, ...]; a_0 pinned (regular branch ~ t^(k+1/2))
        sub[0::2] = g_next
        sub[1::2] = g_here[1:]
        bdiag[0::2] = mass_b
        bdiag[1::2] = mass_a[1:]
    else:
        # order [a_0, b_0, a_1, b_1, ...]; a_N pinned
        sub[0::2] = g_here
        sub[1::2] = g_next[:-1]
        bdiag[0::2] = mass_a[:-1]
        bdiag[1::2] = mass_b
    A = BandedSymmetric.from_tridiagonal(diag, sub)
    B = BandedSymmetric.from_diagonal(bdiag)
    return A, B


def _paneitz_pair(
    n: int, angular: float, weight_fn, grid: RadialGrid, essential: bool
) -> tuple[BandedSymmetric, BandedSymmetric]:
    a_coef, q_const = paneitz_constants(n)
    c_const = (n - 4) / 2.0 * q_const
    p, q, w_round = _round_radial_forms(n, angular, lambda r: np.ones_like(r), 0.0)
    form = WeakForm1D(p=p, q=q, w=w_round, essential_left=essential, essential_right=essential)
    K, M = assemble_weak_form(form, grid)
    _, B = _assemble_lumped(
        WeakForm1D(
            p=p,
            q=q,
            w=lambda r: weight_fn(r) ** 4 * np.sin(r) ** (n - 1),
            essential_left=essential,
            essential_right=essential,
        ),
        grid,
    )
    d_lumped = _lumped(M)
    K_sp = K.to_sparse()
    P_sp = K_sp @ sp.diags(1.0 / d_lumped) @ K_sp + a_coef * K_sp + c_const * M.to_sparse()
    return _banded_from_sparse(P_sp, 2), B


def covariance_reduce(
    op: OperatorKind, profile: ConformalProfile, mode: ModeSpec, grid: RadialGrid
) -> AssembledOperator:
    """Weighted round-sphere reduction of the operator for f^2 g0.

    A is the round radial operator of the mode, B the lumped f^k-weighted
    round mass, so eigenvalues of (A, B) are exactly the eigenvalues of the
    conformally rescaled operator.  Needs a finite profile.
    """
    if math.isinf(profile.L):
        raise ValueError("covariance path requires a finite nose length")
    if grid.coordinate_kind != "polar":
        raise ValueError("covariance path assembles on a polar grid")
    n = op.n
    essential = mode.index != 0 if op.kind != KIND_DIRAC else False
    if op.kind == KIND_L:
        p, q, w = _round_radial_forms(
            n, mode.angular_eigenvalue, profile.F, _scalar_constant_term(n)
        )
        A, B = _assemble_lumped(
            WeakForm1D(p=p, q=q, w=lambda r: profile.F(r) ** 2 * np.sin(r) ** (n - 1),
                       essential_left=essential, essential_right=essential),
            grid,
        )
    elif op.kind == KIND_PANEITZ:
        A, B = _paneitz_pair(n, mode.angular_eigenvalue, profile.F, grid, essential)
    else:
        mids = _midpoints(grid.nodes)
        A, B = _dirac_staggered(
            grid.nodes, np.sin(grid.nodes), np.sin(mids), np.cos(mids), mode.index, profile.F
        )
    return AssembledOperator(A=A, B=B, mode=mode, path="covariance", grid=grid)


@dataclass(frozen=True)
class IntrinsicRecord:
    """The warped geometry of one intrinsic row, sampled once for all modes.

    ``grid`` is the arclength grid the modes assemble on.  For the conformal
    Laplacian h, h' and h'' sit at ``quadrature_points(grid, True, True)``,
    whose first 2(m-1) points are the natural layout, so pinned and free
    modes read the same samples; for Dirac h and h' sit at the cell
    midpoints and ``h_nodes`` holds h at the nodes.
    """

    op: OperatorKind
    grid: RadialGrid
    h_nodes: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray


def intrinsic_record(op: OperatorKind, warped: WarpedData, grid: RadialGrid) -> IntrinsicRecord:
    """Sample the warped geometry every mode of ``op`` needs, in one
    ``WarpedData.jet`` call (one arclength inverse for a profile metric)."""
    if op.kind == KIND_PANEITZ:
        raise ValueError("intrinsic Paneitz assembly is not supported")
    if len(warped.t_nodes) != len(grid.nodes):
        raise ValueError("warped data does not match the grid")
    t_nodes = warped.t_nodes
    if grid.coordinate_kind == "arclength":
        work_grid = grid
    else:
        span = t_nodes[-1] + (t_nodes[-1] - t_nodes[-2])
        work_grid = RadialGrid(nodes=t_nodes, coordinate_kind="arclength", span=span)
    if op.kind == KIND_L:
        t = quadrature_points(work_grid, True, True)
    else:
        t = _midpoints(work_grid.nodes)
    h, dh, d2h = warped.jet(t)
    return IntrinsicRecord(op=op, grid=work_grid, h_nodes=warped.h, h=h, dh=dh, d2h=d2h)


def intrinsic_assemble(
    op: OperatorKind,
    warped: WarpedData,
    mode: ModeSpec,
    grid: RadialGrid,
    record: IntrinsicRecord | None = None,
) -> AssembledOperator:
    """Direct assembly in the warped metric dt^2 + h^2 g_{S^(n-1)}.

    ``record`` is ``intrinsic_record(op, warped, grid)``; a row passes one
    record to all of its modes, and it is sampled here when left out."""
    if record is None:
        record = intrinsic_record(op, warped, grid)
    elif record.op != op or record.h_nodes.size != grid.nodes.size:
        raise ValueError("geometry record does not match the operator or the grid")
    n = op.n
    work_grid = record.grid
    if op.kind == KIND_L:
        # w = h^(n-1) is also the stiffness weight p, and q reuses it; a free
        # mode reads the leading natural layout of the pinned samples
        essential = mode.index != 0
        size = None if essential else 2 * (work_grid.nodes.size - 1)
        h = record.h[:size]
        w = h ** (n - 1)
        scal = warped_curvature(h, record.dh[:size], record.d2h[:size], n)
        q = w * (mode.angular_eigenvalue / h**2 + (n - 2) / (4.0 * (n - 1)) * scal)
        A, M = assemble_sampled(work_grid, w, q, w, essential, essential)
        B = BandedSymmetric.from_diagonal(_lumped(M))
    else:
        A, B = _dirac_staggered(
            work_grid.nodes, record.h_nodes, record.h, record.dh, mode.index
        )
    return AssembledOperator(A=A, B=B, mode=mode, path="intrinsic", grid=work_grid)
