"""The three conformally covariant operators, assembled per angular mode.

Every fact about an operator kind apart from its assembly sits in one
frozen table, ``OPERATORS``: its order, the dimensions it supports (the
smallest is what the CLI's ``--n`` defaults to: 3 for the conformal
Laplacian, 5 for Paneitz, 2 for Dirac), its cylinder bottom sigma, its
round-sphere levels, whether its modes are spinor modes and whether it has
an intrinsic path.  ``OperatorKind`` reads its properties there, the mode
groups a row solves come from ``mode_groups``, and the experiments and the
CLI branch on these, never on a kind's name.

Covariance path.  A conformal rescaling g -> f^2 g conjugates an operator of
order k by powers of f: u is an eigensection for f^2 g with eigenvalue lam
iff w = f^((n-k)/2) u solves P_round w = lam f^k w.  The operator is the
round-sphere radial operator (h = sin r, a constant curvature term) and the
conformal factor enters only through the f^k-weighted mass, so the same
machinery validates against the exact round spectra.

Intrinsic path.  The operator is assembled directly in the warped metric
dt^2 + h^2 g_{S^(n-1)} on an arclength grid, with h, h' and h'' sampled
through one arclength inverse of the nodes and sample points together,
the scalar curvature (n-2)/(4(n-1)) Scal(t) as the conformal Laplacian's
curvature term and a unit mass weight.

Both paths sample the geometry of a row once, into one ``RowRecord``
(``covariance_record`` or ``intrinsic_record``), and every mode of the row
assembles from it alone through ``intrinsic_assemble(record, mode)``; a
mode enters only through its angular eigenvalue and its pinned ends.  A
scalar record samples the Gauss points, a Dirac record one point set, the
nodes followed by the cell midpoints, so either path evaluates F (or runs
the arclength inverse) once per row.

  * conformal Laplacian: weak form p = h^(n-1),
    q = h^(n-1) [ l(l+n-2)/h^2 + potential ] and the lumped mass with
    weight F^2 h^(n-1) (F = 1 on the intrinsic path), all array arithmetic
    on the record's samples at the grid's quadrature points, which
    ``grid.assemble_weak_form`` takes as they are;
  * Paneitz (covariance path only): K D^-1 K + a K + c M, with K the
    radial Laplacian stiffness, D its lumped unit-weight mass and (a, c)
    the round-sphere Einstein coefficients, formed entry by entry in band
    storage (bandwidth 2), and B is the lumped F^4-weighted mass;
  * Dirac (n = 2, bounding spin structure, half-integer angular modes k):
    the 2x2 first-order system [[0, X], [X*, 0]] with
    X = d/dt + h'/(2h) - k/h, self-adjoint in L^2(h dt).  The two spinor
    components live on staggered grids (values on nodes, partner on cell
    midpoints), which eliminates the spurious doubled modes a collocated
    first-order discretization would produce.  One endpoint value of the
    node component is pinned to zero (left pole for k > 0, right for k < 0)
    to match the regular Frobenius branch a ~ dist^(|k|+1/2).

Every mass B is diagonal.  The scalar operators lump the P1 mass (row sums,
an O(h^2) change of the discretization, made identically on both paths so
the dual-path check compares like with like); the Dirac mass is diagonal by
construction.  A diagonal B lets the eigensolver turn each pencil into a
banded standard problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from confspec.geometry import ConformalProfile, warped_curvature, warped_jet
from confspec.grid import (
    BandedSymmetric, RadialGrid, assemble_mass, assemble_weak_form, quadrature_points,
)

__all__ = [
    "OPERATORS",
    "KindFacts",
    "OperatorKind",
    "ModeSpec",
    "AssembledOperator",
    "conformal_laplacian",
    "paneitz_operator",
    "dirac_operator",
    "cylinder_threshold",
    "sphere_level",
    "paneitz_constants",
    "mode_multiplicity",
    "make_mode",
    "mode_groups",
    "covariance_reduce",
    "RowRecord",
    "covariance_record",
    "intrinsic_record",
    "intrinsic_assemble",
]

KIND_L = "conformal-laplacian"
KIND_PANEITZ = "paneitz"
KIND_DIRAC = "dirac"


class KindFacts(NamedTuple):
    """What the lab knows of one operator kind apart from its assembly: a
    row of ``OPERATORS``.  A named tuple, not a dataclass, because it is
    about 1 ms cheaper to build at import."""

    label: str  # the kind's name in messages
    order: int
    n_min: int  # the smallest supported dimension, the CLI's default --n
    n_max: float  # the largest, inf when every n >= n_min is supported
    sigma: Callable[[int], float]  # bottom of the cylinder spectrum at n
    level: Callable[[int, int], tuple[float, int]]  # level j of the round S^n
    spinor: bool  # half-integer Fourier modes in +-k pairs, not harmonics
    intrinsic: bool  # assembles on the intrinsic path too


def _harmonics(n: int, j: int) -> int:
    """Dimension of the degree-j spherical harmonics on S^n."""
    return math.comb(n + j, n) - (math.comb(n + j - 2, n) if j >= 2 else 0)


def _paneitz_level(n: int, j: int) -> tuple[float, int]:
    a, q_const = paneitz_constants(n)
    mu = j * (j + n - 1)
    return mu * mu + a * mu + (n - 4) / 2.0 * q_const, _harmonics(n, j)


# The cylinder bottoms are those of S^(n-1) x R.  For Paneitz the l = 0
# symbol at frequency xi is (xi^2 + n^2/4)(xi^2 + (n-4)^2/4), whose
# coefficients are all positive, so the bottom sits at xi = 0:
# n^2 (n-4)^2 / 16, which is (n-4)/2 times the cylinder's Q-curvature
# n^2 (n-4)/8.  Round S^n levels: mu_j = j(j + n - 1) plus n(n-2)/4, or
# mu_j^2 + a mu_j + (n-4)/2 Q for Paneitz, on the degree-j harmonics; Dirac
# +-(n/2 + j), each sign with multiplicity 2^floor(n/2) C(n+j-1, j).
OPERATORS = MappingProxyType({
    KIND_L: KindFacts(
        "conformal Laplacian", order=2, n_min=3, n_max=math.inf,
        sigma=lambda n: (n - 2) ** 2 / 4.0, spinor=False, intrinsic=True,
        level=lambda n, j: (j * (j + n - 1) + n * (n - 2) / 4.0, _harmonics(n, j)),
    ),
    KIND_PANEITZ: KindFacts(
        "Paneitz operator", order=4, n_min=5, n_max=math.inf,
        sigma=lambda n: n**2 * (n - 4) ** 2 / 16.0, spinor=False, intrinsic=False,
        level=_paneitz_level,
    ),
    KIND_DIRAC: KindFacts(
        "Dirac operator", order=1, n_min=2, n_max=2,
        sigma=lambda n: (n - 1) / 2.0, spinor=True, intrinsic=True,
        level=lambda n, j: (n / 2.0 + j, 2 ** (n // 2) * math.comb(n + j - 1, j)),
    ),
})


@dataclass(frozen=True)
class OperatorKind:
    """One of the implemented conformally covariant operators on S^n; its
    facts are read from ``OPERATORS``."""

    kind: str
    n: int

    def __post_init__(self):
        facts = OPERATORS.get(self.kind)
        if facts is None:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not facts.n_min <= self.n <= facts.n_max:
            span = "=" if facts.n_max == facts.n_min else ">="
            raise ValueError(f"{facts.label} requires dimension n {span} {facts.n_min}")

    @property
    def order(self) -> int:
        return OPERATORS[self.kind].order

    @property
    def label(self) -> str:
        return OPERATORS[self.kind].label

    @property
    def spinor(self) -> bool:
        """Whether the angular modes are half-integer spinor modes."""
        return OPERATORS[self.kind].spinor

    @property
    def intrinsic(self) -> bool:
        """Whether the intrinsic path can assemble this kind."""
        return OPERATORS[self.kind].intrinsic


def conformal_laplacian(n: int) -> OperatorKind:
    return OperatorKind(KIND_L, n)


def paneitz_operator(n: int) -> OperatorKind:
    return OperatorKind(KIND_PANEITZ, n)


def dirac_operator(n: int = 2) -> OperatorKind:
    return OperatorKind(KIND_DIRAC, n)


def cylinder_threshold(op: OperatorKind) -> float:
    """Bottom of the absolute spectrum on the standard cylinder S^(n-1) x R."""
    return OPERATORS[op.kind].sigma(op.n)


def sphere_level(op: OperatorKind, j: int) -> tuple[float, int]:
    """Level j = 0, 1, ... of the round S^n spectrum, as its value and its
    multiplicity (for a spinor kind, that of each sign)."""
    return OPERATORS[op.kind].level(op.n, j)


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
    if op.spinor:
        if float(2 * index) != int(2 * index) or int(2 * index) % 2 == 0:
            raise ValueError("spinor modes are half-integers")
        return 1
    ell = int(index)
    if ell != index or ell < 0:
        raise ValueError("harmonic degree must be a nonnegative integer")
    return _harmonics(op.n - 1, ell)


def make_mode(op: OperatorKind, index: float) -> ModeSpec:
    mult = mode_multiplicity(op, index)
    angular = float(index if op.spinor else index * (index + op.n - 2))
    return ModeSpec(index=float(index), angular_eigenvalue=angular, multiplicity=mult)


def mode_groups(op: OperatorKind):
    """The angular modes of ``op`` in the order a row solves them, in groups
    whose common bottom decides whether higher modes still matter: each
    harmonic degree l = 0, 1, ... alone, each spinor pair +-k for
    k = 1/2, 3/2, ... together."""
    for j in itertools.count():
        indices = (j + 0.5, -(j + 0.5)) if op.spinor else (float(j),)
        yield tuple(make_mode(op, index) for index in indices)


@dataclass(frozen=True)
class AssembledOperator:
    """Generalized pair A x = lambda B x for one angular mode."""

    A: BandedSymmetric
    B: BandedSymmetric


def _scalar_constant_term(n: int) -> float:
    # (n-2)/(4(n-1)) * Scal(round S^n) with Scal = n(n-1)
    return n * (n - 2) / 4.0


def _lumped(mass: BandedSymmetric) -> np.ndarray:
    """Row sums of a banded mass: the diagonal of its lumped form."""
    return mass.matvec(np.ones(mass.size))


def _paneitz_bands(K: BandedSymmetric, M: BandedSymmetric, n: int) -> BandedSymmetric:
    """K D^-1 K + a K + c M for the stiffness K and unit mass M of a mode, D
    the lumped M.  Each entry of K D^-1 K sums (K[i,k] / D[k]) K[k,j] over
    ascending k before a K and c M are added, as a sparse CSR product does,
    so the bands keep the bits that product gave."""
    a, q_const = paneitz_constants(n)
    m = K.size
    k0, k1 = K.bands[0], K.bands[1, : m - 1]
    s = 1.0 / _lumped(M)
    bands = np.zeros((3, m))
    bands[0] = k0 * s * k0
    bands[0, 1:] = k1 * s[:-1] * k1 + bands[0, 1:]
    bands[0, :-1] += k1 * s[1:] * k1
    bands[1, : m - 1] = k1 * s[:-1] * k0[:-1] + k0[1:] * s[1:] * k1
    bands[2, : m - 2] = k1[1:] * s[1:-1] * k1[:-1]
    bands[:2] += a * K.bands
    bands[:2] += (n - 4) / 2.0 * q_const * M.bands
    return BandedSymmetric(bands)


def _midpoints(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t[:-1] + t[1:])


def _dirac_staggered(
    t_nodes: np.ndarray, h: np.ndarray, dh: np.ndarray, w: np.ndarray, k: float
) -> tuple[BandedSymmetric, BandedSymmetric]:
    """Staggered first-order mode system, interleaved to bandwidth 1.

    Node component a and midpoint component b; the adjoint difference stencil
    is centered at the midpoints, so the scheme is second order and the block
    matrix [[0, G^T], [G, 0]] is symmetric by construction.  ``h``, ``dh``
    and the mass weight ``w`` (F on the covariance path, 1 on the intrinsic
    path) sit on one point set, the m nodes followed by the m - 1 cell
    midpoints; ``dh`` is read at the midpoints alone.
    """
    t = np.asarray(t_nodes, dtype=float)
    m = t.size
    mids = _midpoints(t)
    dl = np.diff(t)
    hm = h[m:]
    ctil = dh[m:] / (2.0 * hm) + k / hm
    hb = hm * dl
    g_here = hb * (1.0 / dl - 0.5 * ctil)  # coefficient on a_j
    g_next = -hb * (1.0 / dl + 0.5 * ctil)  # coefficient on a_{j+1}

    delta = np.empty(t.size)
    delta[1:-1] = mids[1:] - mids[:-1]
    delta[0] = mids[0] - t[0]
    delta[-1] = t[-1] - mids[-1]
    mass_a = w[:m] * h[:m] * delta
    mass_b = w[m:] * hb

    size = 2 * (m - 1)
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


@dataclass(frozen=True)
class RowRecord:
    """The geometry of one row of modes, sampled once for all of them.

    ``grid`` is the grid the modes assemble on: polar on the covariance
    path, arclength on the intrinsic path.  For the scalar kinds ``h``,
    ``potential`` (the curvature term per unit mass) and ``weight`` (the
    mass weight) sit at ``quadrature_points(grid, pinned=True)``, whose first
    2(m-1) points are the natural layout, so pinned and free modes read the
    same samples.  For Dirac ``h``, ``dh`` and ``weight`` sit on one point
    set, the m nodes followed by the m - 1 cell midpoints.  An intrinsic
    record also keeps ``r_nodes``, the polar distances of its nodes, from
    which a row builds the polar grid its volume is read on.  Fields a kind
    or path does not read are None.
    """

    op: OperatorKind
    grid: RadialGrid
    h: np.ndarray
    weight: np.ndarray
    potential: np.ndarray | None = None
    dh: np.ndarray | None = None
    r_nodes: np.ndarray | None = None


def covariance_record(op: OperatorKind, profile: ConformalProfile, grid: RadialGrid) -> RowRecord:
    """Sample the round geometry h = sin r and the mass weight F^k on a polar
    grid, once for every mode of ``op``: the scalar kinds at the Gauss points
    with the constant curvature term n(n-2)/4 (conformal Laplacian) or 0
    (Paneitz, whose curvature terms enter as its Einstein coefficients),
    Dirac at the nodes and the cell midpoints together."""
    if grid.coordinate_kind != "polar":
        raise ValueError("covariance path assembles on a polar grid")
    if op.spinor:
        # k = 1, so the mass weight is F itself
        r = np.concatenate([grid.nodes, _midpoints(grid.nodes)])
        return RowRecord(op, grid, np.sin(r), profile.F(r), dh=np.cos(r))
    r = quadrature_points(grid, pinned=True)
    constant = _scalar_constant_term(op.n) if op.kind == KIND_L else 0.0
    return RowRecord(
        op, grid, np.sin(r), profile.F(r) ** op.order, potential=np.full(r.shape, constant)
    )


def intrinsic_record(op: OperatorKind, profile: ConformalProfile, grid: RadialGrid) -> RowRecord:
    """Sample the warped geometry of ``profile`` that every mode of ``op``
    needs on an arclength grid over the whole profile, with one arclength
    inverse: the nodes and the sample points (Gauss points for the
    conformal Laplacian, cell midpoints for Dirac) are mapped to polar
    distances together, and the nodes' images are kept as ``r_nodes``.
    The scalar curvature enters once per row through ``potential``, and
    the mass weight is 1."""
    if not op.intrinsic:
        raise ValueError(f"intrinsic {op.label} assembly is not supported")
    if grid.coordinate_kind != "arclength" or grid.span != profile.total_arclength():
        # the walls sit at 0 and the total arclength, the images of 0 and pi
        raise ValueError("intrinsic path assembles on an arclength grid over the whole profile")
    nodes = grid.nodes
    m = nodes.size
    if op.spinor:
        r = profile.r_of_arclength(np.concatenate([nodes, _midpoints(nodes)]))
        h, dh, _ = warped_jet(profile, r)
        return RowRecord(op, grid, h, np.ones(r.size), dh=dh, r_nodes=r[:m])
    n = op.n
    samples = quadrature_points(grid, pinned=True)
    r = profile.r_of_arclength(np.concatenate([nodes, samples]))
    h, dh, d2h = warped_jet(profile, r[m:])
    potential = (n - 2) / (4.0 * (n - 1)) * warped_curvature(h, dh, d2h, n)
    return RowRecord(op, grid, h, np.ones(samples.size), potential=potential, r_nodes=r[:m])


def intrinsic_assemble(record: RowRecord, mode: ModeSpec) -> AssembledOperator:
    """Assemble one mode from its row's record, taken on either path
    (``covariance_record`` or ``intrinsic_record``).

    The scalar kinds form w = h^(n-1), which is the stiffness weight p and
    the measure, q = w (angular/h^2 + potential) and the mass weight
    ``weight * w``; a free mode reads the leading natural layout of the
    pinned samples.  One assembly gives a scalar kind its stiffness K and B,
    the lumped weighted mass; K is the conformal Laplacian's A, and Paneitz
    adds the unit mass M (``assemble_mass`` alone) for K D^-1 K + a K + c M,
    D the lumped M.  Dirac
    is the staggered system with the record's weights.
    """
    op, grid = record.op, record.grid
    if op.spinor:
        A, B = _dirac_staggered(grid.nodes, record.h, record.dh, record.weight, mode.index)
        return AssembledOperator(A=A, B=B)
    pinned = mode.index != 0
    size = None if pinned else 2 * (grid.nodes.size - 1)
    h = record.h[:size]
    w = h ** (op.n - 1)
    q = w * (mode.angular_eigenvalue / h**2 + record.potential[:size])
    A, M = assemble_weak_form(grid, w, q, record.weight[:size] * w, pinned)
    if op.kind == KIND_PANEITZ:
        # the stiffness bands do not read the mass weight, so A is K
        A = _paneitz_bands(A, assemble_mass(grid, w, pinned), op.n)
    return AssembledOperator(A=A, B=BandedSymmetric.from_diagonal(_lumped(M)))


def covariance_reduce(
    op: OperatorKind, profile: ConformalProfile, mode: ModeSpec, grid: RadialGrid
) -> AssembledOperator:
    """Weighted round-sphere reduction of one mode of the operator for f^2 g0.

    A is the round radial operator of the mode, B the lumped f^k-weighted
    round mass, so eigenvalues of (A, B) are exactly the eigenvalues of the
    conformally rescaled operator.  Samples a record for this mode alone;
    a row samples one and assembles every mode from it.
    """
    return intrinsic_assemble(covariance_record(op, profile, grid), mode)
